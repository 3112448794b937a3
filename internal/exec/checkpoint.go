// Task-level checkpoint/restart: the proactive side of the recovery
// machinery (recovery.go is the reactive side).
//
// With a ckpt.Policy configured, every compute task with a positive
// checkpoint size splits its compute phase into Interval-long segments and
// persists a progress snapshot after each one, through the ordinary
// storage.Manager paths — checkpoint I/O contends with workflow I/O on the
// same flow network. Durability follows the platform model: a snapshot on a
// failed node's burst buffer dies with the node (CkptLost), shared-striped
// BB and PFS replicas survive, and an asynchronous BB→PFS drain (CkptDrain)
// upgrades a burst-buffer snapshot to full durability. When a crashed task
// is retried, startTask restores the newest surviving snapshot
// (RestartFrom) and resumes computing from its progress mark instead of
// re-executing from scratch; the retry/backoff machinery is untouched.
//
// Without a policy every hook below is behind a Policy.Enabled() or
// nil-map check, and fault-free traces are bit-identical to a build without
// this file.
package exec

import (
	"errors"
	"fmt"

	"bbwfsim/internal/platform"
	"bbwfsim/internal/sim"
	"bbwfsim/internal/storage"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/workflow"
)

// ckptRec is one committed checkpoint of one task: a snapshot file, the
// tier it committed to, and the compute progress it captures. A record may
// additionally hold a PFS replica once its drain completes.
type ckptRec struct {
	task *workflow.Task
	file *workflow.File
	svc  storage.Service // commit target
	// progress is the cumulative compute seconds the snapshot captures.
	progress float64
	// drained marks a PFS replica (direct commit or completed drain): the
	// snapshot survives any node failure.
	drained bool
	drainEv sim.Handle       // pending drain start, if scheduled
	drainOp storage.OpHandle // drain copy, if started; Done once it ends
}

// durablePFS reports whether the snapshot holds a PFS replica.
func (r *ckptRec) durablePFS() bool { return r.drained }

// ckptTarget resolves the policy's target tier for a task running on node:
// the node's burst buffer (on-node on Summit, shared on Cori) or the PFS.
func (e *engine) ckptTarget(node *platform.Node) storage.Service {
	if e.cfg.Checkpoint.Target == "pfs" {
		return e.sys.PFS()
	}
	if bb := e.sys.BBFor(node); bb != nil {
		return bb
	}
	return e.sys.PFS()
}

// writeCheckpoint persists a progress snapshot between two compute
// segments. The attempt blocks until the write commits (the classic
// synchronous checkpoint model); the drain to the PFS, if configured, runs
// asynchronously afterwards. Checkpointing degrades gracefully: a rejected
// or full burst-buffer target falls back to the PFS, and a totally failed
// write skips checkpointing for the rest of the attempt rather than
// killing the run.
func (e *engine) writeCheckpoint(a *attempt) {
	if e.err != nil || a.aborted {
		return
	}
	t, node := a.task, a.node
	size := e.cfg.Checkpoint.SizeFor(t)
	f := e.side.MustAddFile(fmt.Sprintf("ckpt-%s-%06d", t.ID(), e.ckptSeq), size)
	e.ckptSeq++
	svc := e.ckptTarget(node)
	if svc != e.sys.PFS() && e.bbRejected(t, f, svc) {
		svc = e.sys.PFS()
	}
	commit := func(svc storage.Service) storage.Func {
		return func() {
			if a.aborted || e.err != nil {
				return
			}
			p := a.progress
			e.record(trace.CkptCommit, t, trace.Progress(f.ID(), svc.Name(), p).Moved(size))
			rec := &ckptRec{task: t, file: f, svc: svc, progress: p,
				drained: svc.Kind() == storage.KindPFS}
			e.ckpts[t] = append(e.ckpts[t], rec)
			e.ckptOf[f] = rec
			e.pruneCkpts(t, rec)
			if e.cfg.Checkpoint.Drain && !rec.drained {
				rec.drainEv = e.sys.Platform().Engine().After(e.cfg.Checkpoint.DrainDelay, func() {
					rec.drainEv = sim.Handle{}
					e.startDrain(rec)
				})
			}
			e.computeSegment(a)
		}
	}
	op, err := e.sys.Manager().Write(node, f, svc, commit(svc), 0)
	if err != nil && svc != e.sys.PFS() {
		// A full burst buffer never kills a checkpoint: drop to the PFS,
		// the way real multi-level checkpoint libraries degrade.
		var full *storage.FullError
		if errors.As(err, &full) {
			e.record(trace.Fallback, t, trace.Full(f.ID()))
			svc = e.sys.PFS()
			op, err = e.sys.Manager().Write(node, f, svc, commit(svc), 0)
		}
	}
	if err != nil {
		// No tier can take the snapshot (e.g. a capacity-bounded PFS):
		// give up on checkpointing this attempt and just keep computing.
		a.ckptOff = true
		e.computeSegment(a)
		return
	}
	e.record(trace.CkptBegin, t, trace.At(f.ID(), svc.Name()))
	e.track(a, op)
}

// startDrain copies a committed burst-buffer snapshot to the PFS, through
// the node copyNode picks (a shared BB outlives its writer). A source
// replica that vanished in the meantime — rotated out or destroyed —
// silently skips the drain: a newer snapshot superseded this one, or
// CkptLost already recorded the loss.
func (e *engine) startDrain(rec *ckptRec) {
	if e.err != nil || rec.drained || !e.sys.Registry().Has(rec.file, rec.svc) {
		return
	}
	node := e.copyNode(rec.file, rec.svc)
	if node == nil {
		return
	}
	op, err := e.sys.Manager().Copy(node, rec.file, rec.svc, e.sys.PFS(), storage.Func(func() {
		if e.err != nil {
			return
		}
		rec.drained = true
		e.record(trace.CkptDrain, rec.task,
			trace.CopyToPFS(rec.file.ID(), rec.svc.Name()).Moved(rec.file.Size()))
		e.pruneCkpts(rec.task, rec)
	}), 0)
	if err != nil {
		return // PFS cannot take it now; the snapshot stays BB-only
	}
	if !rec.drained {
		rec.drainOp = op
	}
}

// pruneCkpts enforces the retention rule after `latest` gained a replica:
// once a snapshot is PFS-durable, every older snapshot of the task is
// discarded entirely; while the newest snapshot lives only on a burst
// buffer, older snapshots shed their superseded BB replicas but keep PFS
// replicas — the fallback the documented durability semantics promise when
// an un-drained snapshot dies with its node. Snapshots mid-drain keep
// their source replica until the drain resolves.
func (e *engine) pruneCkpts(t *workflow.Task, latest *ckptRec) {
	chain := e.ckpts[t]
	kept := chain[:0]
	for _, m := range chain {
		if m == latest || m.progress >= latest.progress {
			kept = append(kept, m)
			continue
		}
		if latest.durablePFS() {
			e.discardCkpt(m)
			continue
		}
		if !e.sys.Manager().Done(m.drainOp) {
			kept = append(kept, m)
			continue
		}
		e.sys.Platform().Engine().Cancel(m.drainEv) // no-op once fired or cancelled
		m.drainEv = sim.Handle{}
		if m.svc.Kind() != storage.KindPFS && e.sys.Registry().Has(m.file, m.svc) {
			if err := e.sys.Manager().Evict(m.file, m.svc); err != nil {
				e.fail(err)
				return
			}
		}
		if e.sys.Registry().Located(m.file) {
			kept = append(kept, m)
		} else {
			delete(e.ckptOf, m.file)
		}
	}
	e.ckpts[t] = kept
}

// discardCkpt fully retires one snapshot: cancels its pending or in-flight
// drain and evicts every replica. Rotation, not loss — no event is
// recorded.
func (e *engine) discardCkpt(m *ckptRec) {
	e.sys.Platform().Engine().Cancel(m.drainEv) // no-op once fired or cancelled
	m.drainEv = sim.Handle{}
	e.sys.Manager().Cancel(m.drainOp) // no-op unless a drain is in flight
	for _, svc := range e.sys.Registry().Locations(m.file) {
		if err := e.sys.Manager().Evict(m.file, svc); err != nil {
			e.fail(err)
			return
		}
	}
	delete(e.ckptOf, m.file)
}

// clearCkpts retires every snapshot of a task that completed: checkpoints
// only ever serve retries of their own task, so completion ends their
// lifetime (and returns their burst-buffer space).
func (e *engine) clearCkpts(t *workflow.Task) {
	if e.ckpts == nil {
		return
	}
	for _, rec := range e.ckpts[t] {
		e.discardCkpt(rec)
	}
	delete(e.ckpts, t)
}

// loseCkptReplica handles a checkpoint replica destroyed by a node failure
// (called from loseNodeReplicas instead of the lineage path — snapshots
// have no producer to re-execute). An in-flight drain whose source just
// vanished is cancelled: the snapshot was lost mid-drain, and recovery
// falls back to the previous durable one.
func (e *engine) loseCkptReplica(rec *ckptRec, svc storage.Service) {
	e.record(trace.CkptLost, rec.task, trace.At(rec.file.ID(), svc.Name()))
	e.sys.Manager().Cancel(rec.drainOp)           // no-op unless a drain is in flight
	e.sys.Platform().Engine().Cancel(rec.drainEv) // no-op once fired or cancelled
	rec.drainEv = sim.Handle{}
	if !e.sys.Registry().Located(rec.file) {
		e.removeCkpt(rec)
	}
}

// removeCkpt drops a replica-less snapshot from its task's chain.
func (e *engine) removeCkpt(rec *ckptRec) {
	chain := e.ckpts[rec.task]
	for i, m := range chain {
		if m == rec {
			e.ckpts[rec.task] = append(chain[:i], chain[i+1:]...)
			break
		}
	}
	delete(e.ckptOf, rec.file)
}

// newestDurableCkpt returns the newest snapshot of t with a replica
// visible from node, and the service to restore it from. Nil when the task
// has no usable snapshot (first attempts, lost replicas, disabled policy).
func (e *engine) newestDurableCkpt(t *workflow.Task, node *platform.Node) (*ckptRec, storage.Service) {
	chain := e.ckpts[t]
	for i := len(chain) - 1; i >= 0; i-- {
		rec := chain[i]
		svc, err := e.sys.Registry().BestVisible(rec.file, node, e.cfg.EnforcePrivateVisibility)
		if err == nil {
			return rec, svc
		}
	}
	return nil, nil
}

// restoreFromCkpt resumes a retried attempt from a surviving snapshot: the
// attempt pays a restore read of the snapshot (instead of re-reading its
// inputs — the image holds the task's full state) and then computes only
// the remaining work. The compute phase starts the moment the restore read
// ends.
func (e *engine) restoreFromCkpt(a *attempt, rec *ckptRec, svc storage.Service) {
	t := a.task
	a.restored = rec.progress
	a.progress = rec.progress
	e.record(trace.RestartFrom, t,
		trace.Progress(rec.file.ID(), svc.Name(), rec.progress).Moved(rec.file.Size()))
	op, err := e.sys.Manager().Read(a.node, rec.file, svc, storage.Func(func() {
		if a.aborted || e.err != nil {
			return
		}
		a.rec.ReadDoneAt = e.now()
		e.runCompute(a)
	}), 0)
	if err != nil {
		e.fail(fmt.Errorf("exec: task %s restore %s: %w", t.ID(), rec.file.ID(), err))
		return
	}
	e.track(a, op)
}

// executed returns the compute seconds the attempt actually executed:
// finished segments beyond the restored mark, plus the in-flight portion
// of a segment an abort cuts short. Its growth across a task's attempts is
// exactly the re-executed compute a recovery policy is trying to avoid.
func (e *engine) executed(a *attempt) float64 {
	ex := a.progress - a.restored
	if e.sys.Platform().Engine().Scheduled(a.computeEv) {
		ex += e.now() - a.segStart
	}
	return ex
}
