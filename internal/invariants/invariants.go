// Package invariants is the simulator's property harness: machine-checked
// cross-layer invariants that every run — any workflow, any platform, any
// fault schedule — must satisfy, including the identities that pin the
// observability layer (internal/metrics) to the event trace and the task
// records.
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
	"math"

	"bbwfsim/internal/core"
	"bbwfsim/internal/metrics"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/sim"
	"bbwfsim/internal/storage"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/workflow"
)

// spanEps is the relative tolerance for telescoping-sum identities: phase
// durations are differences of the same timestamps a task's span is, so
// they cancel exactly in real arithmetic but may differ by a few ulps in
// floats.
const spanEps = 1e-9

// Check validates every cross-layer invariant of one run result against
// the configuration that produced it and returns the violations (empty
// means the run is consistent).
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
//  6. the task families agree with the trace (checkTasks): the
//     completions sum to the trace's task-end count, and on a run with no
//     task-fail or task-retry each task name's phase and wait seconds sum
//     to its task records' spans and waits (within spanEps). The metrics
//     fold adds these from the same records, so this catches a tampered
//     snapshot, not a wrong event;
//  7. checkpoint/restart consistency (checkCkpt): every restart-from
//     references a snapshot replica durable at the restart instant, each
//     restart recovers at most the compute its task lost to aborts and
//     exactly the progress its snapshot's commit captured,
//     recovered-seconds counters match the trace, and checkpoint bytes
//     never exceed the storage traffic they are a part of;
//  8. adaptation consistency (checkAdapt): spilled and replicated bytes
//     never exceed the read traffic of the tier they left or the PFS write
//     traffic they became — adaptation copies ride the same storage
//     manager as workflow data, and the adapt event tallies (spills,
//     replications, fallbacks) match the trace through invariant 5;
//  9. compute time (checkCompute): on a run ro gives no fault injector,
//     no checkpoint policy and the default compute model, each compute
//     task's record computes for the time its node's Amdahl model gives
//     the task's work on its cores (within spanEps).
//
// wf and ro are the workflow and options the run was made with.
//
//bbvet:allow unreached -- entry point of the seeded invariant harness, a test-only package by design
func Check(cfg platform.Config, wf *workflow.Workflow, ro core.RunOptions, res *core.Result) []string {
	var v []string
	violation := func(format string, args ...any) {
		v = append(v, fmt.Sprintf(format, args...))
	}
	snap := res.Metrics
	if snap == nil {
		return []string{"result carries no metrics snapshot"}
	}
	if res.Trace.Events() == nil {
		return []string{"trace retains no events: run with TraceSink trace.Retain"}
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

	// 6. Task families against the trace's counts and task records.
	checkTasks(snap, res, violation)

	// 9. Compute phases against the platform's compute model.
	checkCompute(cfg, wf, ro, res, violation)
	return v
}

// checkCompute validates each compute task's record against the compute
// time the platform gives the task's work on the record's node and
// cores, on a run where that time is the whole compute phase: no fault
// injector, no checkpoint policy and the default compute model. The
// reference comes from the workflow and the platform, not from the task
// events, so a compute-start or compute-end recorded at the wrong time
// fails it; invariants 4 and 6 telescope over any such shift.
func checkCompute(cfg platform.Config, wf *workflow.Workflow, ro core.RunOptions, res *core.Result, violation func(string, ...any)) {
	if ro.Faults != nil || ro.Checkpoint.Enabled() || ro.Compute != nil {
		return
	}
	plat, err := platform.New(sim.NewEngine(), cfg)
	if err != nil {
		violation("platform: %v", err)
		return
	}
	nodes := map[string]*platform.Node{}
	for _, n := range plat.Nodes() {
		nodes[n.Name()] = n
	}
	for _, r := range res.Trace.Records() {
		t := wf.Task(r.TaskID)
		if t.Kind() != workflow.KindCompute {
			continue
		}
		want := nodes[r.Node].ComputeTime(t.Work(), r.Cores, t.Alpha())
		if got := r.ComputeTime(); math.Abs(got-want) > spanEps*(1+want) {
			violation("task %s: computed for %g s on %s, its %g flops on %d cores take %g s",
				r.TaskID, got, r.Node, float64(t.Work()), r.Cores, want)
		}
	}
}

// checkTasks validates the task families of the snapshot against what the
// metrics fold does not compute them from, the trace's per-kind counts and
// the task records the trace folds from the same events:
//
//	a. the completions sum to the trace's task-end count;
//	b. on a run with no task-fail or task-retry every task ran once, so
//	   per task name the phase seconds sum to the records' spans and the
//	   wait seconds to their waits (the phases telescope: within spanEps).
func checkTasks(snap *metrics.Snapshot, res *core.Result, violation func(string, ...any)) {
	type sums struct{ completed, phase, wait float64 }
	got, want := map[string]sums{}, map[string]sums{}
	total := 0.0
	for _, s := range snap.Counters {
		g := got[s.Task]
		switch s.Family {
		case metrics.TasksCompletedTotal:
			total += s.Value
		case metrics.TaskPhaseSecondsTotal:
			g.phase += s.Value
		case metrics.TaskWaitSecondsTotal:
			g.wait += s.Value
		}
		got[s.Task] = g
	}
	if ends := res.Trace.CountKind(trace.TaskEnd); int(total) != ends {
		violation("tasks_completed_total sums to %g, trace has %d task-end events", total, ends)
	}
	if res.Trace.CountKind(trace.TaskFail) > 0 || res.Trace.CountKind(trace.TaskRetry) > 0 {
		return
	}
	for _, r := range res.Trace.Records() {
		w := want[r.Name]
		w.phase += r.ExecTime()
		w.wait += r.WaitTime()
		want[r.Name] = w
	}
	off := func(got, want float64) bool { return math.Abs(got-want) > spanEps*(1+want) }
	for _, r := range res.Trace.Records() { // record order, so violations report deterministically
		w, ok := want[r.Name]
		if !ok {
			continue // checked already
		}
		delete(want, r.Name)
		if g := got[r.Name]; off(g.phase, w.phase) || off(g.wait, w.wait) {
			violation("task %s: phase and wait seconds sum to %g and %g, its records span %g and wait %g",
				r.Name, g.phase, g.wait, w.phase, w.wait)
		}
	}
}
