// Recovery: the failure side of the workflow management system.
//
// The execution engine runs each task as a cancellable *attempt*. A fault
// model (internal/faults) attached through Config.Faults drives failures
// through the FaultController surface: it can crash a running task, fail a
// whole compute node (killing resident attempts and destroying the burst-
// buffer replicas that lived there), or reject burst-buffer allocations.
// The engine answers with the recovery policies configured on Config:
// per-task retry budgets with virtual-time backoff, re-scheduling onto
// surviving nodes through the ordinary NodePolicy, lineage re-execution of
// finished tasks whose only output replica was destroyed, and graceful
// fallback to the PFS when a burst-buffer target is rejected or full.
//
// Everything here is inert unless Config.Faults is set: fault-free runs
// take the exact same code paths, emit the exact same traces, and pay no
// bookkeeping beyond a nil check.
package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"bbwfsim/internal/platform"
	"bbwfsim/internal/sim"
	"bbwfsim/internal/storage"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/workflow"
)

// FaultModel injects failures into one execution. Implementations live in
// internal/faults; a model is single-use (its seeded streams advance as the
// run progresses), so build a fresh one per Run.
type FaultModel interface {
	// Attach binds the model to a run before the first task starts. The
	// model schedules its failure processes on the run's engine (reachable
	// via ctrl.System().Platform().Engine()) and drives failures through
	// ctrl. The controller stays valid for the whole run.
	Attach(ctrl FaultController)
	// RejectBBAlloc reports whether the burst-buffer allocation task t
	// requests for file f is rejected (DataWarp allocation failure). A
	// rejected allocation falls back to the PFS instead of aborting.
	RejectBBAlloc(t *workflow.Task, f *workflow.File) bool
}

// FaultController is the control surface the execution engine exposes to a
// FaultModel. All methods are deterministic given the run's inputs.
type FaultController interface {
	// System returns the run's storage system (and through it the
	// platform, engine, and flow network).
	System() *storage.System
	// Running returns the currently running tasks, ordered by task index.
	Running() []*workflow.Task
	// UpNodes returns the nodes currently up, in index order.
	UpNodes() []*platform.Node
	// KillTask crashes a running task attempt. The task retries under the
	// run's RetryPolicy; an exhausted budget fails the run.
	KillTask(t *workflow.Task, reason string)
	// FailNode takes a node down: resident attempts are killed (charged
	// against their retry budgets) and burst-buffer replicas resident on
	// the node — its node-local BB, or its private-mode shared-BB replicas
	// — are destroyed. Finished tasks whose only replica was destroyed are
	// re-executed (lineage recovery).
	FailNode(n *platform.Node, cause string)
	// RepairNode brings a failed node back; waiting tasks may schedule
	// onto it immediately.
	RepairNode(n *platform.Node)
	// Note records a fault-model event (degradation windows) in the trace.
	Note(kind trace.EventKind, d trace.Event)
	// SetDegraded brackets a bandwidth-degradation window on svc: the fault
	// model calls it with true when the window opens and false when it
	// closes. The adaptation layer (adapt.go) reacts — degradation-aware
	// admission, proactive replication — while runs without an adapt policy
	// pay a nil check.
	SetDegraded(svc storage.Service, active bool)
}

// Backoff selects how retry delays grow with consecutive failures.
type Backoff int

const (
	// BackoffFixed waits BaseDelay before every retry.
	BackoffFixed Backoff = iota
	// BackoffExponential doubles the delay with each failure of the task:
	// BaseDelay, 2·BaseDelay, 4·BaseDelay, … capped at MaxDelay.
	BackoffExponential
)

// RetryPolicy bounds and paces task re-execution after fault-injected
// failures. The zero value retries nothing: the first failure is fatal.
type RetryPolicy struct {
	// MaxRetries is the per-task failure budget: a task may fail at most
	// MaxRetries times and still be retried; the next failure fails the
	// run.
	MaxRetries int
	// Backoff selects the delay growth (fixed or exponential).
	Backoff Backoff
	// BaseDelay is the virtual-time delay before the first retry, in
	// seconds. Zero retries immediately.
	BaseDelay float64
	// MaxDelay caps the exponential backoff; 0 means uncapped.
	MaxDelay float64
	// Jitter stretches each delay by a uniform factor in [1, 1+Jitter),
	// drawn from a dedicated stream seeded with Seed — never from global
	// randomness — so replays stay bit-identical.
	Jitter float64
	// Seed seeds the jitter stream. Only read when Jitter > 0.
	Seed int64
}

func (p RetryPolicy) validate() error {
	if p.MaxRetries < 0 {
		return fmt.Errorf("exec: negative retry budget %d", p.MaxRetries)
	}
	if p.BaseDelay < 0 || p.MaxDelay < 0 {
		return fmt.Errorf("exec: negative retry delay (base %g, max %g)", p.BaseDelay, p.MaxDelay)
	}
	if p.Jitter < 0 {
		return fmt.Errorf("exec: negative retry jitter %g", p.Jitter)
	}
	return nil
}

// delay returns the backoff before retry number `failures` (1-based).
func (p RetryPolicy) delay(failures int, rng *rand.Rand) float64 {
	d := p.BaseDelay
	if p.Backoff == BackoffExponential && failures > 1 {
		d = p.BaseDelay * math.Pow(2, float64(failures-1))
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	if p.Jitter > 0 && rng != nil {
		// The conversion rounds the product, so no platform fuses it
		// with the addition.
		d *= 1 + float64(p.Jitter*rng.Float64())
	}
	return d
}

// phase tracks how far an attempt has progressed, deciding whether a lost
// input still matters (an attempt past its read phase holds the data in
// memory and survives the loss of the replica it read from).
type phase int

const (
	phaseRead phase = iota
	phaseCompute
	phaseWrite
)

// attempt is one try at executing a task: the unit of failure. Aborting an
// attempt cancels its in-flight storage operations and its compute timer,
// releases its node resources, and discards its partially written outputs.
type attempt struct {
	e         *engine
	task      *workflow.Task
	node      *platform.Node
	cores     int
	n         int // 1-based start count for this task
	phase     phase
	aborted   bool
	rec       *trace.TaskRecord  // the task's trace record
	rd, wr    ioCursor           // read and write phase progress
	ops       []storage.OpHandle // in-flight and completed ops, start order
	computeEv sim.Handle         // pending compute-segment completion, if scheduled

	// Compute-phase segmentation (checkpoint.go). computeTotal is the full
	// compute duration of this attempt; progress counts the seconds whose
	// segments completed; restored is the prefix a checkpoint restore
	// contributed (zero on first attempts); segStart stamps the running
	// segment, seg is its length, and ckptAfter tells whether a checkpoint
	// follows it. ckptOff disables checkpointing for the rest of an attempt
	// whose snapshot write found no tier with space.
	computeTotal float64
	progress     float64
	restored     float64
	segStart     float64
	seg          float64
	ckptAfter    bool
	ckptOff      bool
}

// ioCursor walks the files of one I/O phase, a few streams at a time: next
// is the position of the next file to start, pending counts the files not
// yet completed.
type ioCursor struct {
	next, pending int
}

// opRole says which step of an attempt a storage operation serves. It
// rides in the high half of the operation's tag, above the position of the
// file in the task's inputs or outputs.
type opRole uint64

const (
	opRead     opRole = iota // read of input i
	opRelocate               // relocation of input i to the PFS, then its read
	opWrite                  // write of output i
	opStageIn                // stage-in of output i
	opStageOut               // stage-out of input i
)

// opTag packs a role and a file position into an operation tag.
func opTag(role opRole, i int) uint64 { return uint64(role)<<32 | uint64(uint32(i)) }

// OpDone implements storage.Completer: the attempt completes its own
// operations, so starting one allocates no callback.
func (a *attempt) OpDone(tag uint64) {
	i := int(uint32(tag))
	switch opRole(tag >> 32) {
	case opRead:
		a.e.readDone(a, i)
	case opRelocate:
		a.e.relocateDone(a, i)
	case opWrite:
		a.e.writeDone(a, i)
	case opStageIn:
		a.e.stageInDone(a, i)
	case opStageOut:
		a.e.stageOutDone(a, i)
	}
}

// track remembers an operation so an abort can cancel it. Only fault-enabled
// runs pay for the bookkeeping.
func (e *engine) track(a *attempt, op storage.OpHandle) {
	if e.cfg.Faults != nil {
		a.ops = append(a.ops, op)
	}
}

// --- FaultController implementation --------------------------------------

// System implements FaultController.
func (e *engine) System() *storage.System { return e.sys }

// Running implements FaultController: running tasks in index order (the
// active slice is indexed by task index, so iteration order is index order).
func (e *engine) Running() []*workflow.Task {
	var ts []*workflow.Task
	for _, a := range e.active {
		if a != nil {
			ts = append(ts, a.task)
		}
	}
	return ts
}

// UpNodes implements FaultController.
func (e *engine) UpNodes() []*platform.Node {
	var up []*platform.Node
	for _, n := range e.sys.Platform().Nodes() {
		if !n.Down() {
			up = append(up, n)
		}
	}
	return up
}

// Note implements FaultController.
func (e *engine) Note(kind trace.EventKind, d trace.Event) {
	e.tr.Record(e.now(), kind, "", d)
}

// KillTask implements FaultController: crash the task's current attempt and
// arrange its retry (or fail the run when the budget is gone).
func (e *engine) KillTask(t *workflow.Task, reason string) {
	if e.err != nil {
		return
	}
	a := e.active[t.Index()]
	if a == nil {
		return
	}
	e.crashAttempt(a, trace.Named(reason))
	e.schedule()
}

// crashAttempt is KillTask without the trailing reschedule, for callers
// that batch several kills (node failure); why is the task-fail detail.
func (e *engine) crashAttempt(a *attempt, why trace.Event) {
	t := a.task
	e.abortAttempt(a, why)
	if e.err != nil {
		return
	}
	e.kills[t.Index()]++
	if int(e.kills[t.Index()]) > e.cfg.Retry.MaxRetries {
		e.fail(fmt.Errorf("exec: task %s failed permanently: retry budget %d exhausted",
			t.ID(), e.cfg.Retry.MaxRetries))
		return
	}
	delay := e.cfg.Retry.delay(int(e.kills[t.Index()]), e.retryRng)
	e.sys.Platform().Engine().After(delay, func() {
		// The task may have been parked behind a resurrected producer in
		// the meantime; the dependency machinery re-queues it then.
		if e.err != nil || e.done[t.Index()] || e.active[t.Index()] != nil || e.remaining[t.Index()] > 0 || e.inReady(t) {
			return
		}
		e.record(trace.TaskRetry, t, trace.Attempt(int(e.tries[t.Index()])+1))
		e.pushReady(t)
		e.schedule()
	})
}

// FailNode implements FaultController.
func (e *engine) FailNode(n *platform.Node, cause string) {
	if e.err != nil || n.Down() {
		return
	}
	n.SetDown(true)
	e.tr.Record(e.now(), trace.NodeFail, "", trace.NodeCause(n.Name(), cause))
	for _, t := range e.Running() {
		a := e.active[t.Index()]
		if a != nil && a.node == n {
			e.crashAttempt(a, trace.NodeFailed(n.Name()))
			if e.err != nil {
				return
			}
		}
	}
	e.loseNodeReplicas(n)
	if e.err == nil && e.ad != nil && e.ad.pol.ReplicateOnFault {
		// Fault-aware replication: the failure just proved nodes die — get
		// sole-replica inputs of still-pending tasks off the at-risk tiers
		// before the next one does.
		e.adaptReplicate(nil)
	}
	e.schedule()
}

// RepairNode implements FaultController.
func (e *engine) RepairNode(n *platform.Node) {
	if e.err != nil || !n.Down() {
		return
	}
	n.SetDown(false)
	e.tr.Record(e.now(), trace.NodeRepair, "", trace.Named(n.Name()))
	e.schedule()
}

// abortAttempt tears one attempt down — no more callbacks, no leaked
// resources, no half-written outputs — and records its TaskFail, whose
// detail is why and whose X is the compute the attempt executed.
func (e *engine) abortAttempt(a *attempt, why trace.Event) {
	a.aborted = true
	why.X = e.executed(a)
	e.sys.Platform().Engine().Cancel(a.computeEv) // no-op once fired or cancelled
	a.computeEv = sim.Handle{}
	for _, op := range a.ops {
		e.sys.Manager().Cancel(op) // no-op for ops that already completed
	}
	a.ops = nil
	a.node.ReleaseResources(a.cores, a.task.Memory())
	e.running--
	e.active[a.task.Index()] = nil
	e.dropOutputs(a.task)
	e.record(trace.TaskFail, a.task, why)
}

// dropOutputs evicts every replica of the task's output files: a crashed
// attempt loses its partial outputs, and a task re-executed after replica
// loss regenerates all of them. Stage-in tasks keep their PFS placements —
// those model the file's permanent long-term-storage residence, not data
// the task moved.
func (e *engine) dropOutputs(t *workflow.Task) {
	for _, f := range t.Outputs() {
		if e.ad != nil {
			// An in-flight spill or replication of a dropped output would
			// re-register a replica of data the re-execution regenerates.
			e.cancelSpill(f)
			e.cancelReplication(f)
		}
		for _, svc := range e.sys.Registry().Locations(f) {
			if t.Kind() == workflow.KindStageIn && svc.Kind() == storage.KindPFS {
				continue
			}
			if err := e.sys.Manager().Evict(f, svc); err != nil {
				e.fail(err)
				return
			}
		}
	}
}

// loseNodeReplicas destroys the burst-buffer replicas a failed node hosted:
// everything on its node-local BB, and its own replicas on a private-mode
// shared BB ("access to files in the BB are limited to the compute node
// that created them" — when the creator dies, so does its allocation).
// Striped shared-BB replicas live on dedicated BB nodes and survive.
func (e *engine) loseNodeReplicas(n *platform.Node) {
	for _, svc := range e.sys.AllBBs() {
		var lost []*workflow.File
		switch {
		case svc.Kind() == storage.KindNodeBB && svc.Local(n):
			lost = e.sys.Registry().FilesOn(svc)
		case svc.Kind() == storage.KindSharedBB && svc.Mode() == platform.BBPrivate:
			for _, f := range e.sys.Registry().FilesOn(svc) {
				if e.sys.Registry().Creator(f, svc) == n {
					lost = append(lost, f)
				}
			}
		}
		// Tear down in ID order; FilesOn walks files in index order.
		slices.SortFunc(lost, func(a, b *workflow.File) int { return strings.Compare(a.ID(), b.ID()) })
		for _, f := range lost {
			if !e.sys.Registry().Has(f, svc) {
				// Recovering an earlier file already tore this replica down
				// (aborted attempts discard their partial outputs).
				continue
			}
			if err := e.sys.Manager().Evict(f, svc); err != nil {
				e.fail(err)
				return
			}
			if e.ad != nil {
				// A spill or replication copy reading the destroyed replica
				// dies with it; cancel so its reservation returns.
				e.adaptReplicaLost(f, svc)
			}
			if ck := e.ckptOf[f]; ck != nil {
				// Checkpoint snapshots have no producer to re-execute; their
				// loss is handled by the checkpoint chain, not the lineage.
				e.loseCkptReplica(ck, svc)
				continue
			}
			e.recoverLostFile(f)
			if e.err != nil {
				return
			}
		}
	}
}

// recoverLostFile handles a destroyed replica: nothing to do while another
// replica survives (readers fall back through the registry ranking);
// otherwise the producer re-executes to regenerate it.
func (e *engine) recoverLostFile(f *workflow.File) {
	if e.sys.Registry().Located(f) {
		return
	}
	p := f.Producer()
	if p == nil {
		// Workflow inputs always keep a PFS replica (placeInputs), so a
		// sole-replica loss here indicates corrupted accounting.
		e.fail(fmt.Errorf("exec: workflow input %s lost its only replica", f.ID()))
		return
	}
	e.resurrect(p)
}

// resurrect re-executes a finished task whose output replica was destroyed
// (lineage recovery, the way Spark-style systems regenerate lost
// partitions). Children that still need the regenerated data return to the
// pending state; children past their read phase hold their inputs in memory
// and keep running.
func (e *engine) resurrect(p *workflow.Task) {
	if e.err != nil || !e.done[p.Index()] {
		return // already pending, ready, or running again
	}
	for _, c := range p.Children() {
		if e.done[c.Index()] {
			continue
		}
		if a := e.active[c.Index()]; a != nil {
			if a.phase != phaseRead {
				continue
			}
			e.abortAttempt(a, trace.LostFrom(p.ID()))
			if e.err != nil {
				return
			}
		} else {
			e.removeReady(c)
		}
		e.remaining[c.Index()]++
	}
	e.dropOutputs(p)
	if e.err != nil {
		return
	}
	e.done[p.Index()] = false
	e.finished--
	e.record(trace.TaskRetry, p, trace.Named("re-execution: output replica lost"))
	e.pushReady(p)
}

// recoverLostInput handles a running attempt that found no replica of an
// input file — possible only under fault injection, when a node failure
// (or scratch eviction racing one) destroyed data mid-schedule. The attempt
// parks until the producer regenerates the file. Reports whether recovery
// was arranged.
func (e *engine) recoverLostInput(a *attempt, f *workflow.File) bool {
	if e.cfg.Faults == nil {
		return false
	}
	p := f.Producer()
	if p == nil {
		return false
	}
	if e.done[p.Index()] {
		e.resurrect(p) // aborts a: it is a read-phase consumer of p
	}
	if e.active[a.task.Index()] == a && !a.aborted {
		// Producer is already re-running; park this attempt behind it.
		e.abortAttempt(a, trace.Lost(f.ID()))
		e.remaining[a.task.Index()]++
	}
	e.schedule()
	return true
}

// inReady reports whether t sits in the ready queue.
func (e *engine) inReady(t *workflow.Task) bool {
	return slices.Contains(e.ready, int32(t.Index()))
}

// removeReady pulls t out of the ready queue, reporting whether it was
// there.
func (e *engine) removeReady(t *workflow.Task) bool {
	i := slices.Index(e.ready, int32(t.Index()))
	if i < 0 {
		return false
	}
	e.ready = slices.Delete(e.ready, i, i+1)
	return true
}
