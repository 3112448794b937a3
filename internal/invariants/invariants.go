// Package invariants is the simulator's property harness: machine-checked
// cross-layer invariants that every run — any workflow, any platform, any
// fault schedule — must satisfy, plus the trace-replay reconstruction that
// pins the observability layer (internal/metrics) to the event trace.
//
// The checks are deliberately redundant with the simulator's internal
// accounting: bytes flow through internal/storage's ServiceStats AND the
// metrics counters; occupancy is audited inside exec.Run (via
// storage.System.AuditCapacity, asserted at the end of every run) AND
// bounded here from the emitted snapshot against the configured capacity.
// Two independent accountings of the same quantity only stay equal while
// both are right, which is what makes the harness a tripwire rather than a
// tautology.
package invariants

import (
	"fmt"

	"bbwfsim/internal/core"
	"bbwfsim/internal/metrics"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/storage"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/workflow"
)

// RebuildPhases replays the event trace and reconstructs the task-level
// metric families — task_phase_seconds_total, task_wait_seconds_total,
// task_aborted_seconds_total, tasks_completed_total — performing the same
// floating-point operations in the same order as the executor's live
// emission (exec.commitPhases on every task-end, exec.abortAttempt on
// every task-fail). The returned snapshot therefore matches the run's
// emitted snapshot bitwise on those families, including under retries,
// lineage re-execution, and fallbacks; any difference means the metrics
// layer and the trace disagree about what happened.
func RebuildPhases(tr *trace.Trace, wf *workflow.Workflow) *metrics.Snapshot {
	col := metrics.New(tr.PlatformName, tr.WorkflowName)
	type attemptState struct {
		ready, started, readDone, computeDone float64
	}
	states := map[string]*attemptState{}
	state := func(id string) *attemptState {
		if s := states[id]; s != nil {
			return s
		}
		s := &attemptState{}
		states[id] = s
		return s
	}
	name := func(id string) string {
		if r := tr.Lookup(id); r != nil && r.Name != "" {
			return r.Name
		}
		return id
	}
	for _, ev := range tr.Events() {
		if ev.TaskID == "" {
			continue
		}
		s := state(ev.TaskID)
		switch ev.Kind {
		case trace.TaskReady:
			s.ready = ev.Time
		case trace.TaskStart:
			s.started = ev.Time
		case trace.ComputeStart:
			// The executor stamps ReadDoneAt and records compute-start at
			// the same instant, so this event time IS the record's value.
			s.readDone = ev.Time
		case trace.ComputeEnd:
			s.computeDone = ev.Time
		case trace.TaskFail:
			// Every abort charges now − StartedAt to the aborted counter
			// and is followed by a task-fail record at that same instant.
			col.Add(metrics.TaskAbortedSecondsTotal,
				metrics.Key{Task: name(ev.TaskID)}, ev.Time-s.started)
		case trace.TaskEnd:
			n := name(ev.TaskID)
			kind := workflow.KindCompute
			if t := wf.Task(ev.TaskID); t != nil {
				kind = t.Kind()
			}
			switch kind {
			case workflow.KindStageIn:
				col.Add(metrics.TaskPhaseSecondsTotal,
					metrics.Key{Task: n, Phase: metrics.PhaseStageIn}, ev.Time-s.started)
			case workflow.KindStageOut:
				col.Add(metrics.TaskPhaseSecondsTotal,
					metrics.Key{Task: n, Phase: metrics.PhaseStageOut}, ev.Time-s.started)
			default:
				col.Add(metrics.TaskPhaseSecondsTotal,
					metrics.Key{Task: n, Phase: metrics.PhaseRead}, s.readDone-s.started)
				col.Add(metrics.TaskPhaseSecondsTotal,
					metrics.Key{Task: n, Phase: metrics.PhaseCompute}, s.computeDone-s.readDone)
				col.Add(metrics.TaskPhaseSecondsTotal,
					metrics.Key{Task: n, Phase: metrics.PhaseWrite}, ev.Time-s.computeDone)
			}
			col.Add(metrics.TaskWaitSecondsTotal, metrics.Key{Task: n}, s.started-s.ready)
			col.Add(metrics.TasksCompletedTotal, metrics.Key{Task: n}, 1)
		}
	}
	return col.Snapshot()
}

// taskFamilies are the metric families RebuildPhases reconstructs.
var taskFamilies = map[string]bool{
	metrics.TaskPhaseSecondsTotal:   true,
	metrics.TaskWaitSecondsTotal:    true,
	metrics.TaskAbortedSecondsTotal: true,
	metrics.TasksCompletedTotal:     true,
}

// spanEps is the relative tolerance for telescoping-sum identities: phase
// durations are differences of the same timestamps a task's span is, so
// they cancel exactly in real arithmetic but may differ by a few ulps in
// floats.
const spanEps = 1e-9

// Check validates every cross-layer invariant of one run result against
// the configuration that produced it and returns the violations (empty
// means the run is consistent). The workflow must be the one the run
// executed.
//
// Invariants, in order:
//  1. trace timestamps are non-negative and monotonically non-decreasing;
//  2. per-tier byte conservation: the metrics layer's storage_bytes_total
//     equals the storage manager's independent ServiceStats tallies, for
//     the burst-buffer tiers and the PFS separately (exact — both sides
//     accumulate the same integral file sizes);
//  3. occupancy: every service's storage_peak_bytes high-water mark is
//     within its configured capacity (capacity 0 = unbounded; the in-run
//     cross-check of the same accounting is storage.System.AuditCapacity,
//     which exec.Run asserts before returning);
//  4. per-task phase sums telescope to the task's span (within spanEps);
//  5. the snapshot's kernel observations match the result: makespan gauge,
//     event count, and fault tallies;
//  6. the task-level metric families equal the trace-replay reconstruction
//     (RebuildPhases) bitwise, in both directions;
//  7. checkpoint/restart consistency (checkCkpt): every restart-from
//     references a snapshot replica durable at the restart instant, each
//     restart recovers at most the compute its task lost to aborts,
//     recovered-seconds counters match the trace, and checkpoint bytes
//     never exceed the storage traffic they are a part of;
//  8. adaptation consistency (checkAdapt): spilled and replicated bytes
//     never exceed the read traffic of the tier they left or the PFS write
//     traffic they became — adaptation copies ride the same storage
//     manager as workflow data, and the adapt event tallies (spills,
//     replications, fallbacks) match the trace through invariant 5.
//
//bbvet:allow unreached -- entry point of the seeded invariant harness, a test-only package by design
func Check(cfg platform.Config, wf *workflow.Workflow, res *core.Result) []string {
	var v []string
	violation := func(format string, args ...any) {
		v = append(v, fmt.Sprintf(format, args...))
	}
	snap := res.Metrics
	if snap == nil {
		return []string{"result carries no metrics snapshot"}
	}

	// 1. Monotone virtual time.
	prev := 0.0
	for i, ev := range res.Trace.Events() {
		if ev.Time < 0 {
			violation("event %d (%s) at negative time %g", i, ev.Kind, ev.Time)
		}
		if ev.Time < prev {
			violation("event %d (%s) at %g precedes event %d at %g: virtual time ran backwards",
				i, ev.Kind, ev.Time, i-1, prev)
		}
		prev = ev.Time
	}

	// 2. Byte conservation, metrics vs. storage manager.
	bbBytes, pfsBytes := 0.0, 0.0
	for _, s := range snap.Counters {
		if s.Family != metrics.StorageBytesTotal {
			continue
		}
		if s.Tier == string(storage.KindPFS) {
			pfsBytes += s.Value
		} else {
			bbBytes += s.Value
		}
	}
	wantBB := float64(res.BB.BytesRead + res.BB.BytesWritten)
	wantPFS := float64(res.PFS.BytesRead + res.PFS.BytesWritten)
	if bbBytes != wantBB { //bbvet:allow float-compare -- integral byte counts: both tallies sum the same whole-byte file sizes, so any difference is an accounting bug
		violation("BB bytes: metrics counted %g, storage manager counted %g", bbBytes, wantBB)
	}
	if pfsBytes != wantPFS { //bbvet:allow float-compare -- integral byte counts: both tallies sum the same whole-byte file sizes, so any difference is an accounting bug
		violation("PFS bytes: metrics counted %g, storage manager counted %g", pfsBytes, wantPFS)
	}

	// 3. Occupancy high-water marks within configured capacity.
	for _, g := range snap.Gauges {
		if g.Family != metrics.StoragePeakBytes {
			continue
		}
		cap := cfg.BB.Capacity
		if g.Service == "pfs" {
			cap = cfg.PFS.Capacity
		}
		if cap > 0 && g.Value > float64(cap) {
			violation("service %s peak occupancy %g bytes exceeds configured capacity %g",
				g.Service, g.Value, float64(cap))
		}
	}

	// 4. Phase sums telescope to task spans.
	for _, r := range res.Trace.Records() {
		span := r.FinishedAt - r.StartedAt
		sum := (r.ReadDoneAt - r.StartedAt) + (r.ComputeDone - r.ReadDoneAt) + (r.FinishedAt - r.ComputeDone)
		diff := sum - span
		if diff < 0 {
			diff = -diff
		}
		tol := spanEps * (1 + span)
		if diff > tol {
			violation("task %s: phase sum %g differs from span %g by %g", r.TaskID, sum, span, diff)
		}
	}

	// 5. Kernel observations match the result.
	if ms, ok := snap.Gauge(metrics.MakespanSeconds, metrics.Key{}); !ok || ms != res.Makespan { //bbvet:allow float-compare -- the gauge is set from the same tr.Makespan() value the result carries; exact identity is the contract
		violation("makespan gauge %g != result makespan %g", ms, res.Makespan)
	}
	if ev := snap.Counter(metrics.SimEventsTotal, metrics.Key{}); ev != float64(res.Events) { //bbvet:allow float-compare -- both sides are the same integer event count
		violation("sim_events_total %g != result event count %d", ev, res.Events)
	}
	faultPairs := []struct {
		family string
		want   int
	}{
		{metrics.FaultTaskFailuresTotal, res.Faults.TaskFailures},
		{metrics.FaultRetriesTotal, res.Faults.Retries},
		{metrics.FaultNodeFailuresTotal, res.Faults.NodeFailures},
		{metrics.FaultBBRejectionsTotal, res.Faults.BBRejections},
		{metrics.FaultFallbacksTotal, res.Faults.Fallbacks},
		{metrics.FaultDegradeWindowsTotal, res.Faults.DegradeWindows},
		{metrics.CkptCommitsTotal, res.Faults.CkptCommits},
		{metrics.CkptDrainsTotal, res.Faults.CkptDrains},
		{metrics.CkptLossesTotal, res.Faults.CkptLosses},
		{metrics.CkptRestartsTotal, res.Faults.CkptRestarts},
		{metrics.AdaptSpillsTotal, res.Faults.AdaptSpills},
		{metrics.AdaptReplicationsTotal, res.Faults.AdaptReplications},
		{metrics.AdaptFallbacksTotal, res.Faults.AdaptFallbacks},
	}
	for _, p := range faultPairs {
		if got := snap.Counter(p.family, metrics.Key{}); got != float64(p.want) { //bbvet:allow float-compare -- both sides are the same integer event count
			violation("%s = %g, result counted %d", p.family, got, p.want)
		}
	}

	// 7. Checkpoint/restart consistency: restarts reference durable
	// snapshots, recovered compute is bounded by aborted compute, and
	// checkpoint traffic is a subset of storage traffic (ckpt.go).
	checkCkpt(snap, res, violation)

	// 8. Adaptation consistency: spill/replication traffic is a subset of
	// the storage traffic it moved through (adapt.go).
	checkAdapt(snap, violation)

	// 6. Task families equal the trace-replay reconstruction bitwise.
	rebuilt := RebuildPhases(res.Trace, wf)
	for _, s := range rebuilt.Counters {
		if got := snap.Counter(s.Family, s.Key); got != s.Value { //bbvet:allow float-compare -- bitwise identity is the reconstruction contract: same float ops in the same order
			violation("reconstructed %s%+v = %g, snapshot has %g", s.Family, s.Key, s.Value, got)
		}
	}
	for _, s := range snap.Counters {
		if !taskFamilies[s.Family] {
			continue
		}
		if got := rebuilt.Counter(s.Family, s.Key); got != s.Value { //bbvet:allow float-compare -- bitwise identity is the reconstruction contract: same float ops in the same order
			violation("snapshot %s%+v = %g, reconstruction has %g", s.Family, s.Key, s.Value, got)
		}
	}
	return v
}
