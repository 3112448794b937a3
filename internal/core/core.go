// Package core is the top-level API of the reproduction: the calibrated
// lightweight simulator for workflow executions on HPC platforms with burst
// buffers — the paper's primary contribution (Section IV).
//
// A Simulator wraps a platform description (Table I parameters via
// internal/platform presets, or any custom Config) and runs workflow DAGs
// against it under a data-placement policy, returning the trace and
// makespan. Calibration from observed executions (the paper's Eq. 3/4
// pipeline) lives in calib.FromObservations, whose per-task works plug
// into the workload generators' Work parameters.
//
// Typical use (ExampleSimulator_Run is a complete, checked program):
//
//	sim := core.MustNewSimulator(platform.Cori(1, platform.BBPrivate))
//	wf := swarp.MustNew(swarp.Params{Pipelines: 1})
//	res, err := sim.Run(wf, core.RunOptions{StagedFraction: 1, IntermediatesToBB: true})
//	fmt.Println(res.Makespan)
package core

import (
	"bbwfsim/internal/adapt"
	"bbwfsim/internal/ckpt"
	"bbwfsim/internal/exec"
	"bbwfsim/internal/metrics"
	"bbwfsim/internal/placement"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/sim"
	"bbwfsim/internal/storage"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/workflow"
)

// Simulator is a reusable factory for simulated executions on one platform
// configuration. Each Run builds a fresh engine, platform, and storage
// system, so runs are independent and deterministic.
type Simulator struct {
	cfg platform.Config
}

// NewSimulator validates the platform configuration and returns a
// simulator for it.
func NewSimulator(cfg platform.Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Simulator{cfg: cfg}, nil
}

// MustNewSimulator is NewSimulator for preset configurations.
func MustNewSimulator(cfg platform.Config) *Simulator {
	s, err := NewSimulator(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// RunOptions tunes one simulated execution.
type RunOptions struct {
	// StagedFraction is the fraction of the workflow's stageable input
	// files placed on the burst buffer (the paper's x-axis). Ignored when
	// Placement is set.
	StagedFraction float64
	// IntermediatesToBB sends intermediate files to the BB rather than the
	// PFS. Ignored when Placement is set.
	IntermediatesToBB bool
	// Placement overrides the fraction-based policy entirely.
	Placement exec.Placement
	// CoresPerTask overrides compute tasks' requested cores when positive.
	CoresPerTask int
	// PrePlaceInputs places true workflow inputs (files with no producer)
	// on their targets at time zero at no cost — for workflows whose
	// staging is outside the measured makespan (the 1000Genomes study).
	PrePlaceInputs bool
	// NodePolicy and OrderPolicy select the scheduler's node-selection and
	// ready-queue ordering strategies (defaults: first-fit, FIFO).
	NodePolicy  exec.NodePolicy
	OrderPolicy exec.OrderPolicy
	// EnforcePrivateVisibility applies the private DataWarp visibility
	// rule (replicas readable only from their creating node; other
	// readers trigger an on-demand relocation through the PFS).
	EnforcePrivateVisibility bool
	// EvictAfterLastRead frees burst-buffer replicas once their last
	// consumer finishes (scratch-data lifecycle management).
	EvictAfterLastRead bool
	// Background loads share the platform with the workflow (e.g.
	// checkpoint traffic, internal/ckpttraffic).
	Background []exec.Background
	// Faults injects seeded failures into the run (internal/faults). Fault
	// models are single-use, so a fresh one is needed per Run.
	Faults exec.FaultModel
	// Retry bounds and paces re-execution of fault-killed tasks.
	Retry exec.RetryPolicy
	// BBFallback redirects writes whose burst-buffer target is full to the
	// PFS instead of failing the run.
	BBFallback bool
	// Checkpoint configures task-level checkpoint/restart recovery
	// (internal/ckpt): periodic progress snapshots to a storage tier and
	// restarts from the newest durable one. The zero value disables it.
	Checkpoint ckpt.Policy
	// Adapt configures runtime adaptation (internal/adapt): BB-pressure
	// spill with hysteresis, fault-aware proactive replication, and
	// degradation-aware admission fallback. The zero value disables it.
	Adapt adapt.Policy
	// TraceSink receives the run's events. Nil — the default — keeps only
	// per-kind counts and folded summaries. trace.Retain, alone or
	// anywhere in a chain of trace.Tees, keeps every event and task record
	// in memory, which replay/invariant consumers, Trace.Save and
	// RenderGantt require; with Metrics set it still does, though the run
	// tees the metrics fold around this sink. trace.JSONLSink and
	// trace.CSVSink stream events out. Makespan, Faults, and Metrics in
	// the Result are identical whatever the sink. The caller owns a
	// streaming sink and must Close it after the run.
	TraceSink trace.Sink
	// OpModel adjusts every storage operation's latency, rate cap and
	// size; nil is the identity model of the lightweight simulator. The
	// synthetic testbed (internal/testbed) sets its machine model here.
	OpModel storage.OpModel
	// Compute overrides the compute-time model; nil is Amdahl's law on
	// each task's Work and Alpha. The testbed sets its scaling truth here.
	Compute exec.ComputeModel
	// Metrics asks for the run's observability snapshot in
	// Result.Metrics. Off — the default — the run builds no collector and
	// records no series, which is most of a short run's bookkeeping; every
	// other Result field is bit-identical either way. On, the storage layer
	// counts its operations, the metrics fold (NewMetricsFold) derives the
	// task, checkpoint and adaptation families from the run's events beside
	// whatever TraceSink receives them, and the end-of-run families are
	// added last (finishSnapshot). The events and every sink's output are
	// the same either way.
	Metrics bool
}

// FaultStats counts the fault and recovery events of one execution.
type FaultStats struct {
	// TaskFailures is the number of aborted task attempts (crashes, node
	// failures, and lost-input aborts).
	TaskFailures int
	// Retries is the number of re-executions (failed tasks re-queued plus
	// finished tasks re-run after losing their only output replica).
	Retries int
	// NodeFailures is the number of whole-node outages.
	NodeFailures int
	// BBRejections is the number of rejected burst-buffer allocations.
	BBRejections int
	// Fallbacks is the number of writes redirected to the PFS.
	Fallbacks int
	// DegradeWindows is the number of bandwidth-degradation windows opened.
	DegradeWindows int
	// CkptCommits is the number of committed task checkpoints.
	CkptCommits int
	// CkptDrains is the number of completed BB→PFS checkpoint drains.
	CkptDrains int
	// CkptLosses is the number of checkpoint replicas destroyed by faults.
	CkptLosses int
	// CkptRestarts is the number of task restarts that resumed from a
	// checkpoint instead of recomputing from scratch.
	CkptRestarts int
	// AdaptSpills is the number of replicas the adaptation layer spilled
	// off pressured burst buffers.
	AdaptSpills int
	// AdaptReplications is the number of completed proactive replication
	// copies after node failures or degradation windows.
	AdaptReplications int
	// AdaptFallbacks is the number of allocations redirected to the PFS by
	// degradation-aware admission.
	AdaptFallbacks int
}

// faultStats derives the counters from a trace.
func faultStats(tr *trace.Trace) FaultStats {
	return FaultStats{
		TaskFailures:   tr.CountKind(trace.TaskFail),
		Retries:        tr.CountKind(trace.TaskRetry),
		NodeFailures:   tr.CountKind(trace.NodeFail),
		BBRejections:   tr.CountKind(trace.BBReject),
		Fallbacks:      tr.CountKind(trace.Fallback),
		DegradeWindows: tr.CountKind(trace.DegradeStart),
		CkptCommits:    tr.CountKind(trace.CkptCommit),
		CkptDrains:     tr.CountKind(trace.CkptDrain),
		CkptLosses:     tr.CountKind(trace.CkptLost),
		CkptRestarts:   tr.CountKind(trace.RestartFrom),

		AdaptSpills:       tr.CountKind(trace.AdaptSpill),
		AdaptReplications: tr.CountKind(trace.AdaptReplicate),
		AdaptFallbacks:    tr.CountKind(trace.AdaptFallback),
	}
}

// SchedStats folds a multi-tenant campaign's per-job accounting
// (internal/sched) into the Result shape: terminal-outcome tallies plus
// the mean wait, response, and bounded-slowdown figures over completed
// jobs. All zero for single-workflow runs.
type SchedStats struct {
	// Policy is the scheduling policy the campaign ran under.
	Policy string
	// Submitted = Completed + Failed + Rejected on every finished run.
	Submitted, Completed, Failed, Rejected int
	// NodeFailures counts injected whole-node outages.
	NodeFailures int
	// MeanWait, MeanResponse, and MeanSlowdown average over completed
	// jobs (zero if none completed).
	MeanWait, MeanResponse, MeanSlowdown float64
}

// Result is the outcome of one simulated execution.
type Result struct {
	// Makespan is the time of the last task completion, in seconds.
	Makespan float64
	// Trace is the run's trace: its event log and task records only when
	// RunOptions.TraceSink is or holds trace.Retain.
	Trace *trace.Trace
	// Summaries aggregates task records by category.
	Summaries []trace.Summary
	// BB and PFS are the storage services' traffic statistics.
	BB  storage.ServiceStats
	PFS storage.ServiceStats
	// Events is the number of discrete events the kernel executed: the
	// simulator's deterministic cost metric (wall time is not part of a
	// Result, so repeated runs stay bit-identical).
	Events uint64
	// PeakPending is the event queue's high-water mark — with a counting
	// trace it bounds the kernel's live memory, which is what makes
	// million-task runs O(active tasks) rather than O(history).
	PeakPending int
	// Faults counts the run's fault and recovery events; all zero on
	// fault-free runs.
	Faults FaultStats
	// Metrics is the run's full observability snapshot: bytes per tier,
	// virtual time per task phase, occupancy high-water marks, solver and
	// kernel work counters, fault tallies. Deterministically ordered, so
	// identical runs marshal to identical bytes. Nil unless
	// RunOptions.Metrics asked for it; campaigns (sched.Result.Core)
	// always carry one.
	Metrics *metrics.Snapshot
	// Sched carries batch-campaign accounting when the result came from
	// the multi-tenant scheduler (sched.Result.Core); nil for
	// single-workflow runs.
	Sched *SchedStats
}

// Run simulates wf on the simulator's platform.
func (s *Simulator) Run(wf *workflow.Workflow, opts RunOptions) (*Result, error) {
	eng := sim.NewEngine()
	plat, err := platform.New(eng, s.cfg)
	if err != nil {
		return nil, err
	}
	sys := storage.NewSystem(plat, opts.OpModel)
	var col *metrics.Collector
	sink := opts.TraceSink
	if opts.Metrics {
		col = metrics.New(s.cfg.Name, wf.Name())
		sys.Manager().SetMetrics(col)
		sink = trace.Tee(sink, NewMetricsFold(col, wf, sys))
	}
	pol := opts.Placement
	if pol == nil {
		set, err := placement.NewFraction(wf, opts.StagedFraction, opts.IntermediatesToBB)
		if err != nil {
			return nil, err
		}
		pol = set
	}
	tr, err := exec.Run(sys, wf, exec.Config{
		Placement:                pol,
		Compute:                  opts.Compute,
		TraceSink:                sink,
		CoresPerTask:             opts.CoresPerTask,
		PrePlaceInputs:           opts.PrePlaceInputs,
		NodePolicy:               opts.NodePolicy,
		OrderPolicy:              opts.OrderPolicy,
		EnforcePrivateVisibility: opts.EnforcePrivateVisibility,
		EvictAfterLastRead:       opts.EvictAfterLastRead,
		Background:               opts.Background,
		Faults:                   opts.Faults,
		Retry:                    opts.Retry,
		BBFallback:               opts.BBFallback,
		Checkpoint:               opts.Checkpoint,
		Adapt:                    opts.Adapt,
	})
	if err != nil {
		return nil, err
	}
	fs := faultStats(tr)
	res := &Result{
		Makespan:    tr.Makespan(),
		Trace:       tr,
		Summaries:   tr.Summarize(),
		BB:          sys.BBStats(),
		PFS:         sys.Manager().Stats(sys.PFS()),
		Events:      eng.EventsFired(),
		PeakPending: eng.MaxPending(),
		Faults:      fs,
	}
	if col != nil {
		finishSnapshot(col, eng, plat, sys, tr, fs)
		res.Metrics = col.Snapshot()
	}
	return res, nil
}

// finishSnapshot folds the end-of-run observations into the collector: the
// kernel and solver work counters, per-service occupancy high-water marks,
// the fault tallies, and the makespan. The fault families are emitted even
// when zero, so fault-free and faulty runs share one snapshot schema and
// diff cleanly.
func finishSnapshot(col *metrics.Collector, eng *sim.Engine, plat *platform.Platform,
	sys *storage.System, tr *trace.Trace, fs FaultStats) {
	col.Add(metrics.SimEventsTotal, metrics.Key{}, float64(eng.EventsFired()))
	col.GaugeMax(metrics.SimQueuePeakEvents, metrics.Key{}, float64(eng.MaxPending()))
	nst := plat.Network().Stats()
	col.Add(metrics.FlowRecomputesTotal, metrics.Key{}, float64(nst.Recomputes))
	col.Add(metrics.FlowFreezeRoundsTotal, metrics.Key{}, float64(nst.FreezeRounds))
	col.Add(metrics.FlowFlowsTotal, metrics.Key{}, float64(nst.FlowsStarted))
	for _, svc := range sys.Services() {
		col.GaugeMax(metrics.StoragePeakBytes, metrics.Key{Service: svc.Name()}, float64(svc.Peak()))
	}
	col.Add(metrics.FaultTaskFailuresTotal, metrics.Key{}, float64(fs.TaskFailures))
	col.Add(metrics.FaultRetriesTotal, metrics.Key{}, float64(fs.Retries))
	col.Add(metrics.FaultNodeFailuresTotal, metrics.Key{}, float64(fs.NodeFailures))
	col.Add(metrics.FaultBBRejectionsTotal, metrics.Key{}, float64(fs.BBRejections))
	col.Add(metrics.FaultFallbacksTotal, metrics.Key{}, float64(fs.Fallbacks))
	col.Add(metrics.FaultDegradeWindowsTotal, metrics.Key{}, float64(fs.DegradeWindows))
	col.Add(metrics.CkptCommitsTotal, metrics.Key{}, float64(fs.CkptCommits))
	col.Add(metrics.CkptDrainsTotal, metrics.Key{}, float64(fs.CkptDrains))
	col.Add(metrics.CkptLossesTotal, metrics.Key{}, float64(fs.CkptLosses))
	col.Add(metrics.CkptRestartsTotal, metrics.Key{}, float64(fs.CkptRestarts))
	col.Add(metrics.AdaptSpillsTotal, metrics.Key{}, float64(fs.AdaptSpills))
	col.Add(metrics.AdaptReplicationsTotal, metrics.Key{}, float64(fs.AdaptReplications))
	col.Add(metrics.AdaptFallbacksTotal, metrics.Key{}, float64(fs.AdaptFallbacks))
	col.GaugeMax(metrics.MakespanSeconds, metrics.Key{}, tr.Makespan())
}
