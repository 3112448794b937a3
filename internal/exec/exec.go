// Package exec is the workflow management system of the simulator: it
// schedules ready tasks onto compute nodes, drives each task through its
// read → compute → write lifecycle against the storage system, and emits
// the time-stamped trace whose last event is the makespan.
//
// Task semantics follow the paper's model: a compute task reads all its
// inputs (concurrent streams), computes for a duration given by Amdahl's
// law on its allocated cores, then writes all its outputs (concurrent
// streams). A stage-in task copies its files into the burst buffer one at a
// time ("the stage-in task is always sequential").
//
// Each execution of a task is an *attempt* (see recovery.go): under fault
// injection an attempt may be aborted mid-phase and the task retried on a
// surviving node, within the budget of Config.Retry.
package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"bbwfsim/internal/adapt"
	"bbwfsim/internal/ckpt"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/sim"
	"bbwfsim/internal/storage"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/workflow"
)

// Placement decides where data lands. Implementations live in
// internal/placement; the zero Config uses PFSOnly.
type Placement interface {
	// StageTarget returns the burst buffer a workflow input (or stage-in
	// file) should be staged into, or nil to leave it on the PFS.
	StageTarget(f *workflow.File, sys *storage.System, node *platform.Node) storage.Service
	// OutputTarget returns the service task t writes output f to, or nil
	// for the PFS.
	OutputTarget(t *workflow.Task, f *workflow.File, sys *storage.System, node *platform.Node) storage.Service
}

// PFSOnly places everything on the parallel file system: no burst-buffer
// use at all. It is the baseline configuration of every experiment.
type PFSOnly struct{}

// StageTarget implements Placement.
func (PFSOnly) StageTarget(*workflow.File, *storage.System, *platform.Node) storage.Service {
	return nil
}

// OutputTarget implements Placement.
func (PFSOnly) OutputTarget(*workflow.Task, *workflow.File, *storage.System, *platform.Node) storage.Service {
	return nil
}

// ComputeModel overrides the default compute-time model (Amdahl's law on
// the task's Work and Alpha). The synthetic testbed installs a model with
// per-category scaling behavior and measurement noise.
type ComputeModel interface {
	Duration(t *workflow.Task, node *platform.Node, cores int) float64
}

// Config tunes one simulated execution.
type Config struct {
	// Placement decides data placement; nil means PFSOnly.
	Placement Placement
	// Compute overrides the compute-time model when non-nil.
	Compute ComputeModel
	// NodePolicy selects nodes for ready tasks (default NodeFirstFit).
	NodePolicy NodePolicy
	// OrderPolicy orders the ready queue (default OrderFIFO).
	OrderPolicy OrderPolicy
	// CoresPerTask overrides every compute task's requested core count when
	// positive (the paper's "number of cores per task" sweeps). Negative
	// values are rejected.
	CoresPerTask int
	// PrePlaceInputs places workflow input files (files with no producer)
	// on their stage targets at time zero with no cost, in addition to the
	// PFS. This models executions whose stage-in cost is outside the
	// measured makespan (the 1000Genomes case study). Files produced by
	// stage-in tasks are never pre-placed.
	PrePlaceInputs bool
	// EnforcePrivateVisibility applies the private DataWarp rule the paper
	// describes ("access to files in the BB are limited to the compute
	// node that created them"): on a private-mode shared BB, a replica
	// written by another node is invisible and the reader falls back to
	// the PFS. Off by default, matching the paper's simulator, which does
	// not model it.
	EnforcePrivateVisibility bool
	// EvictAfterLastRead frees a file's burst-buffer replicas once its
	// last consumer finishes (scratch-data lifecycle management in the
	// spirit of MaDaTS, which the paper surveys). Terminal outputs are
	// never evicted. This lets aggressive placements fit burst buffers
	// smaller than the workflow footprint.
	EvictAfterLastRead bool
	// Background loads run alongside the workflow (e.g. checkpoint
	// traffic from other jobs, internal/ckpttraffic). They start just
	// before execution and stop implicitly when the workflow completes
	// (the engine halts at the last task's finish).
	Background []Background
	// Faults injects failures into the run (internal/faults). Nil — the
	// default — simulates a fault-free platform; such runs take identical
	// code paths and produce bit-identical traces whether or not this
	// feature exists. A model is single-use: build a fresh one per Run.
	Faults FaultModel
	// Retry bounds and paces re-execution of fault-killed tasks. Only
	// consulted when a fault actually kills something; the zero value
	// makes the first failure fatal.
	Retry RetryPolicy
	// Checkpoint configures task-level checkpoint/restart (checkpoint.go):
	// compute tasks periodically persist progress snapshots through the
	// storage system, and fault-killed tasks restart from the newest
	// surviving snapshot instead of recomputing from scratch. The zero
	// value disables checkpointing entirely; such runs take identical code
	// paths and produce bit-identical traces.
	Checkpoint ckpt.Policy
	// Adapt configures runtime adaptation (adapt.go): pressure-triggered
	// BB→PFS spill with hysteresis, fault-aware proactive replication, and
	// degradation-aware admission fallback. The zero value disables
	// adaptation entirely; such runs take identical code paths and produce
	// bit-identical traces.
	Adapt adapt.Policy
	// BBFallback redirects a write to the PFS when its burst-buffer target
	// has no space, instead of failing the run (graceful degradation — the
	// workflow slows down rather than dying). Rejections injected by the
	// fault model always fall back, with or without this flag.
	BBFallback bool
	// TraceSink receives the run's events (see trace.New). Nil — the
	// default — keeps only counts and folded summaries; trace.Retain,
	// alone or anywhere in a chain of trace.Tees, keeps the whole trace
	// in memory. The engine emits the exact same event sequence whatever
	// the sink. The engine keeps no metrics: a run's
	// task, checkpoint and adaptation metrics are a fold over these
	// events (core.NewMetricsFold), whose task families add from the
	// task records the run's trace builds from them and hands a sink that
	// is a trace.AttemptSink. That is why some events carry operands
	// their text does not render (see trace.Event).
	TraceSink trace.Sink
}

// Background is a load generator that shares the platform with the
// workflow. Start is called once, after the storage system is primed and
// before the first task runs; implementations schedule their own activity
// on the platform's engine. The files they write go into side, the run's
// workflow of files outside the DAG (numbered after the DAG's files).
type Background interface {
	Start(sys *storage.System, side *workflow.Workflow)
}

// Run simulates the workflow on the storage system's platform and returns
// the trace. The storage system must be freshly built (no prior traffic).
func Run(sys *storage.System, wf *workflow.Workflow, cfg Config) (*trace.Trace, error) {
	if wf == nil {
		return nil, fmt.Errorf("exec: nil workflow")
	}
	if cfg.CoresPerTask < 0 {
		return nil, fmt.Errorf("exec: negative CoresPerTask %d", cfg.CoresPerTask)
	}
	if err := cfg.Retry.validate(); err != nil {
		return nil, err
	}
	for i, bg := range cfg.Background {
		if bg == nil {
			return nil, fmt.Errorf("exec: nil Background entry at index %d", i)
		}
	}
	if err := cfg.Checkpoint.Validate(); err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	cfg.Checkpoint = cfg.Checkpoint.Normalized()
	if err := cfg.Adapt.Validate(); err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	cfg.Adapt = cfg.Adapt.Normalized()
	if cfg.Placement == nil {
		cfg.Placement = PFSOnly{}
	}
	if err := wf.Validate(); err != nil {
		return nil, err
	}
	// A task demanding more memory than any node offers can never run.
	ram := sys.Platform().Config().RAMPerNode
	if ram > 0 {
		for _, t := range wf.Tasks() {
			if t.Memory() > ram {
				return nil, fmt.Errorf("exec: task %s demands %v memory but nodes have %v",
					t.ID(), t.Memory(), ram)
			}
		}
	}
	sched, err := newScheduler(cfg.NodePolicy, cfg.OrderPolicy, wf,
		float64(sys.Platform().Config().CoreSpeed))
	if err != nil {
		return nil, err
	}
	tr := trace.ForWorkflow(wf, sys.Platform().Config().Name, cfg.TraceSink)
	sys.Registry().Reserve(len(wf.Files()))
	e := &engine{
		sys:       sys,
		wf:        wf,
		cfg:       cfg,
		sched:     sched,
		tr:        tr,
		remaining: make([]int32, len(wf.Tasks())),
		readers:   make([]int32, len(wf.Files())),
		done:      make([]bool, len(wf.Tasks())),
		doneOnce:  make([]bool, len(wf.Tasks())),
		active:    make([]*attempt, len(wf.Tasks())),
		tries:     make([]int32, len(wf.Tasks())),
		kills:     make([]int32, len(wf.Tasks())),
	}
	e.computeDoneFn = e.computeDone
	if cfg.Faults != nil && cfg.Retry.Jitter > 0 {
		e.retryRng = rand.New(rand.NewSource(cfg.Retry.Seed))
	}
	if cfg.Checkpoint.Enabled() || len(cfg.Background) > 0 {
		e.side = workflow.NewFrom(wf.Name()+"+side", len(wf.Files()))
	}
	if cfg.Checkpoint.Enabled() {
		e.ckpts = map[*workflow.Task][]*ckptRec{}
		e.ckptOf = map[*workflow.File]*ckptRec{}
	}
	if cfg.Adapt.Enabled() {
		e.ad = newAdaptState(cfg.Adapt)
	}
	for _, f := range wf.Files() {
		e.readers[f.Index()] = int32(len(f.Consumers()))
	}
	if err := e.placeInputs(); err != nil {
		return nil, err
	}
	if e.ad != nil && cfg.Adapt.SpillEnabled() {
		// Reservations are the only moments occupancy rises mid-run; the
		// hook is the adaptation layer's pressure probe. Pre-placed inputs
		// bypass reservations, so probe once up front too.
		sys.Manager().OnReserve(e.adaptPressure)
		for _, bb := range sys.AllBBs() {
			e.adaptPressure(bb)
		}
	}
	for _, t := range wf.Tasks() {
		e.remaining[t.Index()] = int32(len(t.Parents()))
		if e.remaining[t.Index()] == 0 {
			e.pushReady(t)
		}
	}
	for _, bg := range cfg.Background {
		bg.Start(sys, e.side)
	}
	if cfg.Faults != nil {
		cfg.Faults.Attach(e)
	}
	e.schedule()
	sys.Platform().Engine().Run()
	if e.err != nil {
		return nil, e.err
	}
	if e.finished != len(wf.Tasks()) {
		return nil, fmt.Errorf("exec: deadlock: %d of %d tasks finished (cores exhausted or unsatisfiable request)",
			e.finished, len(wf.Tasks()))
	}
	// Debug assert: failures, cancellations, and evictions must neither
	// leak reserved space nor drive usage negative.
	if err := sys.AuditCapacity(); err != nil {
		return nil, err
	}
	return e.tr, nil
}

type engine struct {
	sys   *storage.System
	wf    *workflow.Workflow
	cfg   Config
	sched *scheduler
	tr    *trace.Trace

	// Per-task and per-file run state, indexed by Task.Index()/File.Index():
	// dense slices, not maps — a million-task run touches these on every
	// event, and the hash+GC cost of pointer-keyed maps dominated profiles.
	// Files of the side workflow never appear here; they are excluded
	// before every readers consultation.
	remaining []int32 // unfinished parents, per task
	readers   []int32 // consumers not yet finished, per file
	ready     []int32 // ready task indices, in the scheduler's order
	done      []bool  // task currently counts as finished
	// doneOnce stays true once a task has finished at least once, so a
	// lineage re-execution (recovery.go) cannot double-decrement the
	// readers counters.
	doneOnce []bool
	active   []*attempt // running attempt, per task (nil = none)
	tries    []int32    // attempts started, per task
	kills    []int32    // fault-charged failures, per task
	retryRng *rand.Rand // jitter stream; nil unless configured

	// side holds checkpoint snapshots and background-load files, numbered
	// after wf's files; nil unless the run has either.
	side *workflow.Workflow
	// Checkpoint state (checkpoint.go); all nil/zero unless the run has a
	// checkpoint policy.
	ckpts   map[*workflow.Task][]*ckptRec // committed snapshots, oldest first
	ckptOf  map[*workflow.File]*ckptRec   // reverse index for replica-loss hooks
	ckptSeq int                           // snapshot file id counter

	// Adaptation state (adapt.go); nil unless the run has an adapt policy.
	ad *adaptState

	computeDoneFn func(tag uint64) // bound e.computeDone, hoisted once

	finished   int
	running    int
	inSchedule bool
	err        error
}

func (e *engine) now() float64 { return e.sys.Platform().Engine().Now() }

// record records an event of task t now, carrying t's index in M: the
// metrics fold keeps its per-task state by index, so it needs no lookup.
func (e *engine) record(kind trace.EventKind, t *workflow.Task, d trace.Event) {
	d.M = int32(t.Index())
	e.tr.Record(e.now(), kind, t.ID(), d)
}

func (e *engine) fail(err error) {
	if e.err == nil {
		e.err = err
		e.sys.Platform().Engine().Stop()
	}
}

// placeInputs puts every true workflow input (no producer) on the PFS, and
// optionally pre-places it on its stage target.
func (e *engine) placeInputs() error {
	for _, f := range e.wf.Files() {
		if !f.IsInput() {
			continue
		}
		if err := e.sys.PlaceInitial(f, e.sys.PFS()); err != nil {
			return err
		}
		if e.cfg.PrePlaceInputs {
			// Pre-placement has no node context; policies that depend on
			// the node (on-node BBs) receive the consumer's node if there
			// is exactly one consumer, else node 0.
			node := e.sys.Platform().Node(0)
			if cs := f.Consumers(); len(cs) > 0 {
				node = e.nodeHint(cs[0])
			}
			if svc := e.cfg.Placement.StageTarget(f, e.sys, node); svc != nil && svc != e.sys.PFS() {
				if err := e.sys.PlaceInitial(f, svc); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// nodeHint guesses the node a task will run on, for pre-placement on
// on-node burst buffers: tasks spread round-robin by index.
func (e *engine) nodeHint(t *workflow.Task) *platform.Node {
	nodes := e.sys.Platform().Nodes()
	return nodes[t.Index()%len(nodes)]
}

func (e *engine) pushReady(t *workflow.Task) {
	e.ready = e.sched.insert(e.ready, t)
	e.record(trace.TaskReady, t, trace.Event{})
}

// cores returns the core count task t runs with on node n.
func (e *engine) cores(t *workflow.Task, n *platform.Node) int {
	c := t.Cores()
	if e.cfg.CoresPerTask > 0 && t.Kind() == workflow.KindCompute {
		c = e.cfg.CoresPerTask
	}
	if c > n.Cores() {
		c = n.Cores()
	}
	if c < 1 {
		c = 1
	}
	return c
}

// schedule greedily starts every ready task that fits on some node,
// first-fit in node order, tasks in index order. Tasks leave the ready list
// before they start, and the reentrancy guard keeps synchronous task
// completions (e.g. zero-cost stage-ins) from recursing back in; the outer
// loop rescans until a full pass starts nothing. Down nodes refuse every
// task (platform.Node.HasResources), so under fault injection this is also
// where work re-routes onto surviving nodes.
func (e *engine) schedule() {
	if e.err != nil || e.inSchedule {
		return
	}
	e.inSchedule = true
	defer func() { e.inSchedule = false }()
	for {
		started := false
		// Saturation early-exit: every task needs at least one core, so once
		// no up node has a free core the rest of the ready scan can only
		// produce nil picks. Skipping it changes nothing observable but turns
		// the per-completion cost from O(ready) into O(started + nodes) — the
		// difference between hours and seconds on million-task ready queues.
		free := e.freeCores()
		for i := 0; i < len(e.ready) && free > 0; i++ {
			t := e.sched.tasks[e.ready[i]]
			chosen, cores := e.sched.pick(t, e.sys.Platform().Nodes(), e.cores)
			if chosen == nil {
				continue
			}
			e.ready = slices.Delete(e.ready, i, i+1)
			i--
			if !chosen.AllocateResources(cores, t.Memory()) {
				e.fail(fmt.Errorf("exec: resource accounting bug scheduling %s", t.ID()))
				return
			}
			free -= cores
			e.running++
			started = true
			e.startTask(t, chosen, cores)
			if e.err != nil {
				return
			}
		}
		// Synchronous completions inside startTask (zero-cost stage-ins) may
		// have released cores the local counter cannot see; the rescan below
		// recounts, so the fixpoint is the same as an unbounded scan.
		if !started {
			return
		}
	}
}

// freeCores sums the free cores of every up node.
func (e *engine) freeCores() int {
	total := 0
	for _, n := range e.sys.Platform().Nodes() {
		if !n.Down() {
			total += n.FreeCores()
		}
	}
	return total
}

func (e *engine) startTask(t *workflow.Task, node *platform.Node, cores int) {
	e.tries[t.Index()]++
	a := &attempt{e: e, task: t, node: node, cores: cores, n: int(e.tries[t.Index()])}
	e.active[t.Index()] = a
	e.record(trace.TaskStart, t, trace.Started(node.Name(), cores, a.n))
	switch t.Kind() {
	case workflow.KindStageIn:
		e.runStageIn(a, 0)
	case workflow.KindStageOut:
		e.runStageOut(a, 0)
	default:
		if e.ckpts != nil {
			if ck, svc := e.newestDurableCkpt(t, node); ck != nil {
				e.restoreFromCkpt(a, ck, svc)
				return
			}
		}
		e.runReads(a)
	}
}

// runStageOut drains the task's input files back to the PFS one at a
// time, starting at index i. Files already resident on the PFS cost
// nothing; burst-buffer-only files pay a copy through this node. A retried
// stage-out resumes past the files that already reached the PFS.
func (e *engine) runStageOut(a *attempt, i int) {
	if e.err != nil || a.aborted {
		return
	}
	t, node := a.task, a.node
	ins := t.Inputs()
	for i < len(ins) {
		f := ins[i]
		if e.sys.Registry().Has(f, e.sys.PFS()) {
			i++
			continue
		}
		src, err := e.sys.Registry().BestVisible(f, node, e.cfg.EnforcePrivateVisibility)
		if err != nil {
			if e.recoverLostInput(a, f) {
				return
			}
			e.fail(fmt.Errorf("exec: stage-out %s: %w", t.ID(), err))
			return
		}
		e.record(trace.StageStart, t, trace.CopyToPFS(f.ID(), src.Name()))
		op, cerr := e.sys.Manager().Copy(node, f, src, e.sys.PFS(), a, opTag(opStageOut, i))
		if cerr != nil {
			e.fail(fmt.Errorf("exec: stage-out %s: %w", t.ID(), cerr))
			return
		}
		e.track(a, op)
		return
	}
	e.finishTask(a)
}

// stageOutDone resumes a stage-out past input i, whose copy landed.
func (e *engine) stageOutDone(a *attempt, i int) {
	if a.aborted {
		return
	}
	f := a.task.Inputs()[i]
	e.record(trace.StageEnd, a.task, trace.At(f.ID(), e.sys.PFS().Name()).Moved(f.Size()))
	e.runStageOut(a, i+1)
}

// runStageIn stages the task's output files one at a time, starting at
// index i. Files whose target is the PFS materialize instantly (they
// already reside on long-term storage); files bound for a burst buffer pay
// a sequential write, whose completion callback resumes the loop at the
// next file. A rejected or full burst-buffer target degrades gracefully:
// the file simply stays on the PFS.
func (e *engine) runStageIn(a *attempt, i int) {
	if e.err != nil || a.aborted {
		return
	}
	t, node := a.task, a.node
	outs := t.Outputs()
	for i < len(outs) {
		f := outs[i]
		// The file is on long-term storage regardless of staging.
		if !e.sys.Registry().Has(f, e.sys.PFS()) {
			if err := e.sys.PlaceInitial(f, e.sys.PFS()); err != nil {
				e.fail(err)
				return
			}
		}
		svc := e.cfg.Placement.StageTarget(f, e.sys, node)
		if svc == nil || svc == e.sys.PFS() {
			i++
			continue
		}
		if e.adaptFallback(t, f, svc) {
			// Degradation-aware admission: the file stays on the PFS
			// instead of queueing on the degraded buffer.
			i++
			continue
		}
		if e.bbRejected(t, f, svc) {
			i++
			continue
		}
		e.record(trace.StageStart, t, trace.To(f.ID(), svc.Name()))
		op, err := e.sys.Manager().Write(node, f, svc, a, opTag(opStageIn, i))
		if err != nil {
			var full *storage.FullError
			if e.cfg.BBFallback && errors.As(err, &full) {
				e.record(trace.Fallback, t, trace.Full(f.ID()))
				i++
				continue
			}
			e.fail(fmt.Errorf("exec: stage-in %s: %w", t.ID(), err))
			return
		}
		e.track(a, op)
		return
	}
	e.finishTask(a)
}

// stageInDone resumes a stage-in past output i, whose write landed.
func (e *engine) stageInDone(a *attempt, i int) {
	if a.aborted {
		return
	}
	f := a.task.Outputs()[i]
	e.record(trace.StageEnd, a.task, trace.Named(f.ID()).Moved(f.Size()))
	e.runStageIn(a, i+1)
}

// bbRejected reports whether the fault model rejects the burst-buffer
// allocation for f on svc, recording the rejection and the caller's
// fallback to the PFS.
func (e *engine) bbRejected(t *workflow.Task, f *workflow.File, svc storage.Service) bool {
	if e.cfg.Faults == nil || !e.cfg.Faults.RejectBBAlloc(t, f) {
		return false
	}
	e.record(trace.BBReject, t, trace.At(f.ID(), svc.Name()))
	e.record(trace.Fallback, t, trace.To(f.ID(), e.sys.PFS().Name()))
	return true
}

// runReads reads the task's inputs with at most `cores` concurrent streams
// — one POSIX thread per core handles one file at a time, which is what
// makes I/O time shrink with the core count (the behavior the paper's
// Eq. 4 calibration implicitly assumes). The attempt's read cursor hands
// the next input to each stream that frees up, and the phase advances to
// compute when the last read completes.
func (e *engine) runReads(a *attempt) {
	inputs := a.task.Inputs()
	if len(inputs) == 0 {
		e.runCompute(a)
		return
	}
	a.rd = ioCursor{pending: len(inputs)}
	for i := 0; i < a.cores && i < len(inputs); i++ {
		e.startRead(a)
		if e.err != nil || a.aborted {
			return
		}
	}
}

// startRead starts reading the input under the read cursor, if any is
// left.
func (e *engine) startRead(a *attempt) {
	if e.err != nil || a.aborted || a.rd.next >= len(a.task.Inputs()) {
		return
	}
	a.rd.next++
	e.readInput(a, a.rd.next-1)
}

// readDone completes the read of input i and starts the next one, or the
// compute phase after the last.
func (e *engine) readDone(a *attempt, i int) {
	if a.aborted {
		return
	}
	f := a.task.Inputs()[i]
	e.record(trace.ReadEnd, a.task, trace.Named(f.ID()).Moved(f.Size()))
	a.rd.pending--
	if e.err != nil {
		return
	}
	if a.rd.pending == 0 {
		e.runCompute(a)
		return
	}
	e.startRead(a)
}

// readInput reads input i, handling the private-mode visibility rule: when
// the only replica sits on a private shared BB created by another node,
// the creator first relocates it to the PFS (an on-demand stage-out — the
// data-management cost the paper attributes to shared BB designs), then
// the consumer reads the PFS copy. Under fault injection a file may have
// no replica at all (a node failure destroyed it after this task was
// scheduled); the attempt then parks behind the producer's re-execution
// instead of failing the run.
func (e *engine) readInput(a *attempt, i int) {
	t, node := a.task, a.node
	f := t.Inputs()[i]
	svc, err := e.sys.Registry().BestVisible(f, node, e.cfg.EnforcePrivateVisibility)
	if err == nil {
		e.record(trace.ReadStart, t, trace.At(f.ID(), svc.Name()))
		op, rerr := e.sys.Manager().Read(node, f, svc, a, opTag(opRead, i))
		if rerr != nil {
			e.fail(fmt.Errorf("exec: task %s read %s: %w", t.ID(), f.ID(), rerr))
			return
		}
		e.track(a, op)
		return
	}
	// No visible replica. If an invisible private-BB replica exists,
	// relocate it through its creator; otherwise recover the lineage (fault
	// runs) or fail the run (the workflow is broken).
	for _, loc := range e.sys.Registry().Locations(f) {
		creator := e.sys.Registry().Creator(f, loc)
		if loc.Kind() != storage.KindPFS && creator != nil && creator != node {
			relocator := creator
			e.record(trace.StageStart, t, trace.CopyToPFS(f.ID(), loc.Name()))
			op, cerr := e.sys.Manager().Copy(relocator, f, loc, e.sys.PFS(), a, opTag(opRelocate, i))
			if cerr != nil {
				e.fail(fmt.Errorf("exec: task %s relocate %s: %w", t.ID(), f.ID(), cerr))
				return
			}
			e.track(a, op)
			return
		}
	}
	if e.recoverLostInput(a, f) {
		return
	}
	e.fail(fmt.Errorf("exec: task %s: %w", t.ID(), err))
}

// relocateDone reads input i from the PFS copy its relocation landed.
func (e *engine) relocateDone(a *attempt, i int) {
	if a.aborted {
		return
	}
	f := a.task.Inputs()[i]
	e.record(trace.StageEnd, a.task, trace.At(f.ID(), e.sys.PFS().Name()))
	if e.err != nil {
		return
	}
	e.readInput(a, i)
}

func (e *engine) runCompute(a *attempt) {
	t, node, cores := a.task, a.node, a.cores
	a.phase = phaseCompute
	e.record(trace.ComputeStart, t, trace.Event{})
	var dur float64
	if e.cfg.Compute != nil {
		dur = e.cfg.Compute.Duration(t, node, cores)
		if dur < 0 {
			e.fail(fmt.Errorf("exec: compute model returned negative duration for %s", t.ID()))
			return
		}
	} else {
		dur = node.ComputeTime(t.Work(), cores, t.Alpha())
	}
	a.computeTotal = dur
	e.computeSegment(a)
}

// computeSegment runs the next slice of the attempt's compute phase.
// Without an applicable checkpoint policy the slice is the whole remaining
// duration — a single timer, exactly the unsegmented behavior. With one,
// compute pauses every Interval seconds to persist a snapshot;
// writeCheckpoint re-enters this loop after the commit. A restored attempt
// starts with a.progress at the snapshot's mark and computes only the
// remainder.
func (e *engine) computeSegment(a *attempt) {
	if e.err != nil || a.aborted {
		return
	}
	t := a.task
	remaining := a.computeTotal - a.progress
	if remaining < 0 {
		remaining = 0
	}
	a.seg = remaining
	a.ckptAfter = false
	if pol := e.cfg.Checkpoint; pol.Enabled() && !a.ckptOff &&
		pol.Interval < remaining && pol.SizeFor(t) > 0 {
		a.seg = pol.Interval
		a.ckptAfter = true
	}
	a.segStart = e.now()
	a.computeEv = e.sys.Platform().Engine().AfterTag(a.seg, e.computeDoneFn, uint64(t.Index()))
}

// computeDone ends the compute segment of the attempt running the task
// whose index is the tag. An abort cancels the segment's event, so the
// task's active attempt is the one that scheduled it.
func (e *engine) computeDone(tag uint64) {
	a := e.active[tag]
	a.computeEv = sim.Handle{}
	a.progress += a.seg
	if a.ckptAfter {
		e.writeCheckpoint(a)
		return
	}
	e.record(trace.ComputeEnd, a.task, trace.Event{})
	e.runWrites(a)
}

// runWrites writes the task's outputs with at most `cores` concurrent
// streams through the attempt's write cursor (see runReads) and finishes
// the task when the last one completes. A burst-buffer target rejected by
// the fault model — or full, when BBFallback is set — degrades to the PFS
// instead of failing the run.
func (e *engine) runWrites(a *attempt) {
	a.phase = phaseWrite
	outputs := a.task.Outputs()
	if len(outputs) == 0 {
		e.finishTask(a)
		return
	}
	a.wr = ioCursor{pending: len(outputs)}
	for i := 0; i < a.cores && i < len(outputs); i++ {
		e.startWrite(a)
		if e.err != nil || a.aborted {
			return
		}
	}
}

// startWrite starts writing the output under the write cursor, if any is
// left.
func (e *engine) startWrite(a *attempt) {
	t, node := a.task, a.node
	outputs := t.Outputs()
	if e.err != nil || a.aborted || a.wr.next >= len(outputs) {
		return
	}
	i := a.wr.next
	a.wr.next++
	f := outputs[i]
	svc := e.cfg.Placement.OutputTarget(t, f, e.sys, node)
	if svc == nil {
		svc = e.sys.PFS()
	}
	if svc != e.sys.PFS() && e.adaptFallback(t, f, svc) {
		svc = e.sys.PFS()
	}
	if svc != e.sys.PFS() && e.bbRejected(t, f, svc) {
		svc = e.sys.PFS()
	}
	e.record(trace.WriteStart, t, trace.At(f.ID(), svc.Name()))
	op, err := e.sys.Manager().Write(node, f, svc, a, opTag(opWrite, i))
	if err != nil && svc != e.sys.PFS() && e.cfg.BBFallback {
		var full *storage.FullError
		if errors.As(err, &full) {
			e.record(trace.Fallback, t, trace.Full(f.ID()))
			svc = e.sys.PFS()
			e.record(trace.WriteStart, t, trace.At(f.ID(), svc.Name()))
			op, err = e.sys.Manager().Write(node, f, svc, a, opTag(opWrite, i))
		}
	}
	if err != nil {
		e.fail(fmt.Errorf("exec: task %s write %s: %w", t.ID(), f.ID(), err))
		return
	}
	e.track(a, op)
}

// writeDone completes the write of output i and starts the next one, or
// finishes the task after the last.
func (e *engine) writeDone(a *attempt, i int) {
	if a.aborted {
		return
	}
	f := a.task.Outputs()[i]
	e.record(trace.WriteEnd, a.task, trace.Named(f.ID()).Moved(f.Size()))
	a.wr.pending--
	if e.err != nil {
		return
	}
	if a.wr.pending == 0 {
		e.finishTask(a)
		return
	}
	e.startWrite(a)
}

func (e *engine) finishTask(a *attempt) {
	t := a.task
	e.record(trace.TaskEnd, t, trace.Event{X: e.executed(a)})
	e.clearCkpts(t)
	a.node.ReleaseResources(a.cores, t.Memory())
	e.running--
	e.active[t.Index()] = nil
	a.ops = nil
	e.done[t.Index()] = true
	e.finished++
	first := !e.doneOnce[t.Index()]
	e.doneOnce[t.Index()] = true
	if e.cfg.EvictAfterLastRead && first {
		for _, f := range t.Inputs() {
			e.readers[f.Index()]--
			if e.readers[f.Index()] == 0 {
				e.evictScratch(f)
			}
		}
	}
	for _, c := range t.Children() {
		// Guards matter only under fault injection: a lineage re-execution
		// must not decrement children that already ran (done) or that are
		// not waiting on dependencies (remaining 0: running or retrying).
		if e.done[c.Index()] || e.remaining[c.Index()] == 0 {
			continue
		}
		e.remaining[c.Index()]--
		if e.remaining[c.Index()] == 0 {
			e.pushReady(c)
		}
	}
	if e.finished == len(e.wf.Tasks()) {
		// The makespan is fixed now; stop the engine so background load
		// (checkpoint traffic, monitors) cannot keep the clock running.
		e.sys.Platform().Engine().Stop()
		return
	}
	e.schedule()
}

// evictScratch frees the burst-buffer replicas of a file whose last
// consumer has finished. Terminal outputs (no consumers at all) never
// reach here, so only scratch data is discarded.
func (e *engine) evictScratch(f *workflow.File) {
	if e.ad != nil {
		// A spill of a file whose last consumer just finished is pointless:
		// cancel it so the eviction below frees the space exactly once.
		e.cancelSpill(f)
	}
	for _, svc := range e.sys.Registry().Locations(f) {
		if svc.Kind() == storage.KindPFS {
			continue
		}
		if err := e.sys.Manager().Evict(f, svc); err != nil {
			e.fail(err)
			return
		}
	}
}
