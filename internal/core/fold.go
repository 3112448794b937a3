package core

import (
	"bbwfsim/internal/metrics"
	"bbwfsim/internal/storage"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/workflow"
)

// metricsFold is the one implementation of a run's task, checkpoint and
// adaptation metric families, a trace sink that folds the typed events
// into the collector as they are recorded. The task families
// (task_phase_seconds_total, the paper's λ_io split of each task into
// read, compute and write time; task_wait_seconds_total,
// tasks_completed_total, task_aborted_seconds_total and
// compute_executed_seconds_total) come from the trace's task records,
// which the trace hands the fold as each attempt closes
// (AttemptClosed); the checkpoint and adaptation families
// (ckpt_bytes_total, ckpt_overhead_seconds_total,
// ckpt_recovered_seconds_total and adapt_bytes_total) from the events
// (Emit). Every add is a difference of event times or an operand the
// event carries, made at the event that completes it, so each series sees
// its adds in event order whatever sink the run also has.
type metricsFold struct {
	col *metrics.Collector
	// pfs is the PFS's service name and bbTier the tier label of every
	// burst buffer: an event names its service, a series its tier.
	pfs, bbTier string
	tasks       []taskState // per task index
}

// taskState is one task's category and its checkpoint I/O in flight: the
// commit write that began at the last CkptBegin, and the restore read of
// a RestartFrom, which the task's next ComputeStart ends.
type taskState struct {
	s                                 *categorySeries
	ckptBegin, restoreAt, restoreSize float64
	restoreTier                       string // "" while no restore read is in flight
}

// categorySeries are the collector series of one task category, each
// held on its first add so that untouched series never appear; a zero
// handle is one not held yet.
type categorySeries struct {
	kind workflow.Kind
	name string
	// phases are stage-in or stage-out alone, or read, compute and write.
	phases                    [3]metrics.HeldCounter
	wait, completed, executed metrics.HeldCounter
}

// NewMetricsFold returns the trace sink that folds a run of wf on sys
// into col's task, checkpoint and adaptation families. Simulator.Run tees
// it beside the run's own sink when RunOptions.Metrics is set; a caller of
// exec.Run passes it (or a trace.Tee with it) as the TraceSink, where the
// run's trace finds it as its trace.AttemptSink.
func NewMetricsFold(col *metrics.Collector, wf *workflow.Workflow, sys *storage.System) trace.Sink {
	f := &metricsFold{
		col:    col,
		pfs:    sys.PFS().Name(),
		bbTier: string(sys.BBFor(sys.Platform().Nodes()[0]).Kind()),
		tasks:  make([]taskState, len(wf.Tasks())),
	}
	type category struct {
		kind workflow.Kind
		name string
	}
	byCategory := map[category]*categorySeries{}
	for _, t := range wf.Tasks() {
		c := category{t.Kind(), t.Name()}
		if byCategory[c] == nil {
			byCategory[c] = &categorySeries{kind: c.kind, name: c.name}
		}
		f.tasks[t.Index()].s = byCategory[c]
	}
	return f
}

// Emit implements trace.Sink.
func (f *metricsFold) Emit(ev trace.Event) {
	switch ev.Kind {
	case trace.ComputeStart:
		st := f.task(ev)
		if st.restoreTier != "" {
			k := metrics.Key{Tier: st.restoreTier, Op: metrics.OpRead}
			f.col.Add(metrics.CkptBytesTotal, k, st.restoreSize)
			f.col.Add(metrics.CkptOverheadSecondsTotal, k, ev.Time-st.restoreAt)
			st.restoreTier = ""
		}
	case trace.TaskFail:
		f.task(ev).restoreTier = ""
	case trace.CkptBegin:
		f.task(ev).ckptBegin = ev.Time
	case trace.CkptCommit:
		size, _ := ev.Bytes()
		k := metrics.Key{Tier: f.tier(ev.Place), Op: metrics.OpWrite}
		f.col.Add(metrics.CkptBytesTotal, k, size)
		f.col.Add(metrics.CkptOverheadSecondsTotal, k, ev.Time-f.task(ev).ckptBegin)
	case trace.CkptDrain:
		size, _ := ev.Bytes()
		f.col.Add(metrics.CkptBytesTotal, metrics.Key{Tier: f.tier(ev.Place), Op: metrics.OpRead}, size)
		f.col.Add(metrics.CkptBytesTotal, metrics.Key{Tier: string(storage.KindPFS), Op: metrics.OpWrite}, size)
	case trace.RestartFrom:
		st := f.task(ev)
		st.restoreTier, st.restoreAt = f.tier(ev.Place), ev.Time
		st.restoreSize, _ = ev.Bytes()
		f.col.Add(metrics.CkptRecoveredSecondsTotal, metrics.Key{Tier: st.restoreTier}, ev.X)
	case trace.AdaptSpill:
		if size, ok := ev.Bytes(); ok {
			f.col.Add(metrics.AdaptBytesTotal, metrics.Key{Tier: f.tier(ev.Place), Op: metrics.OpSpill}, size)
		}
	case trace.AdaptReplicate:
		size, _ := ev.Bytes()
		f.col.Add(metrics.AdaptBytesTotal, metrics.Key{Tier: f.tier(ev.Place), Op: metrics.OpReplicate}, size)
	}
}

// task returns the state of the event's task, whose index the engine
// records in M.
func (f *metricsFold) task(ev trace.Event) *taskState { return &f.tasks[ev.M] }

// tier returns the tier label of the named service.
func (f *metricsFold) tier(service string) string {
	if service == f.pfs {
		return string(storage.KindPFS)
	}
	return f.bbTier
}

// hold returns h after holding the counter series in it, if it holds none
// yet.
func (f *metricsFold) hold(h *metrics.HeldCounter, family string, k metrics.Key) *metrics.HeldCounter {
	if *h == (metrics.HeldCounter{}) {
		*h = f.col.HoldCounter(family, k)
	}
	return h
}

// AttemptClosed implements trace.AttemptSink. A failed attempt adds the
// seconds from its start to the abort; a completed task commits its phase
// profile, wait and completion from its record. Either adds the compute
// seconds the attempt executed, which its event's X carries; only compute
// tasks have any.
func (f *metricsFold) AttemptClosed(ev trace.Event, r *trace.TaskRecord) {
	s := f.task(ev).s
	if ev.Kind == trace.TaskFail {
		f.col.Add(metrics.TaskAbortedSecondsTotal, metrics.Key{Task: s.name}, ev.Time-r.StartedAt)
	} else {
		phase := func(i int, p string, sec float64) {
			f.hold(&s.phases[i], metrics.TaskPhaseSecondsTotal, metrics.Key{Task: s.name, Phase: p}).Add(sec)
		}
		switch s.kind {
		case workflow.KindStageIn:
			phase(0, metrics.PhaseStageIn, r.FinishedAt-r.StartedAt)
		case workflow.KindStageOut:
			phase(0, metrics.PhaseStageOut, r.FinishedAt-r.StartedAt)
		default:
			phase(0, metrics.PhaseRead, r.ReadDoneAt-r.StartedAt)
			phase(1, metrics.PhaseCompute, r.ComputeDone-r.ReadDoneAt)
			phase(2, metrics.PhaseWrite, r.FinishedAt-r.ComputeDone)
		}
		f.hold(&s.wait, metrics.TaskWaitSecondsTotal, metrics.Key{Task: s.name}).Add(r.StartedAt - r.ReadyAt)
		f.hold(&s.completed, metrics.TasksCompletedTotal, metrics.Key{Task: s.name}).Add(1)
	}
	if s.kind == workflow.KindCompute {
		f.hold(&s.executed, metrics.ComputeExecutedSecondsTotal, metrics.Key{Task: s.name}).Add(ev.X)
	}
}

// Close implements trace.Sink; the fold holds nothing to flush.
func (f *metricsFold) Close() error { return nil }
