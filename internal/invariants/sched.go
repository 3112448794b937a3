package invariants

import (
	"fmt"
	"math"

	"math/rand"

	"bbwfsim/internal/faults"
	"bbwfsim/internal/metrics"
	"bbwfsim/internal/sched"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workloads"
)

// SchedCase derives one randomized multi-tenant campaign configuration
// for the scheduling property harness: a cluster draw (node count, BB
// capacity — occasionally unbounded — and channel bandwidths), a policy
// draw over the full catalog, a seeded synthetic campaign contended
// enough that queues actually form, and a roughly one-in-three
// node-failure campaign on top. The draw uses a private rand stream
// (seed + 13·streamOffset), disjoint from RandomCase's, CkptCase's, and
// AdaptCase's, so all four harnesses replay bit-identically side by
// side. BB demands are whole-MiB multiples (workloads.Campaign), so
// every reservation tally below is an exact float sum.
//
//bbvet:allow unreached -- entry point of the seeded invariant harness, a test-only package by design
func SchedCase(seed int64) (sched.Config, error) {
	rng := rand.New(rand.NewSource(seed + 13*streamOffset))

	cl := sched.Cluster{
		Nodes:       4 + rng.Intn(29),
		BBBandwidth: units.Bandwidth(1+rng.Intn(8)) * units.Bandwidth(units.GiB),
	}
	cl.PFSBandwidth = cl.BBBandwidth / units.Bandwidth(2+rng.Intn(7))
	if rng.Intn(6) > 0 {
		// Bounded BB: small enough that wide reservations queue (or are
		// rejected outright). The zero draw keeps the unbounded branch —
		// BBCapacity 0 disables reservation accounting — covered too.
		cl.BBCapacity = units.Bytes(8+rng.Intn(121)) * units.GiB
	}

	maxNodes := 1 + rng.Intn(cl.Nodes)
	if maxNodes > 16 {
		maxNodes = 16
	}
	spec := workloads.CampaignSpec{
		Jobs:        40 + rng.Intn(111),
		Seed:        seed,
		ArrivalMean: 5 + float64(95*rng.Float64()),
		RuntimeMean: 60 + float64(540*rng.Float64()),
		MaxNodes:    maxNodes,
		BBMean:      units.Bytes(1+rng.Intn(4)) * units.GiB,
	}
	jobs, err := workloads.Campaign(spec)
	if err != nil {
		return sched.Config{}, err
	}

	pols := sched.Policies()
	cfg := sched.Config{
		Cluster: cl,
		Policy:  pols[rng.Intn(len(pols))],
		Jobs:    jobs,
		// CheckSched replays the retained events.
		TraceSink: trace.Retain,
	}
	if rng.Intn(3) == 0 {
		// Outage inter-arrivals scaled to the submission horizon so a few
		// failures land while the campaign is actually running; a bounded
		// budget so every campaign drains.
		horizon := spec.ArrivalMean * float64(spec.Jobs) / float64(3+rng.Intn(10))
		arrival := faults.Exp(horizon)
		if rng.Intn(4) == 0 {
			arrival = faults.Dist{Kind: faults.Weibull, Scale: horizon, Shape: 0.7 + float64(rng.Float64())}
		}
		cfg.Faults = &sched.FaultPlan{
			Seed: seed + 17*streamOffset,
			Node: &faults.NodeProcess{
				Arrival: arrival,
				MTTR:    60 + float64(540*rng.Float64()),
				Budget:  1 + rng.Intn(8),
			},
		}
	}
	return cfg, nil
}

// differs reports whether two floats are not bitwise-equal as values
// (NaN counts as differing), without a float equality operator. The
// scheduling identities below replay the very same operation sequence
// the scheduler executed — same operands, same order — so agreement is
// exact, never approximate.
func differs(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return true
	}
	return a < b || a > b
}

// schedReplay is one job's state machine during the trace replay.
type schedReplay struct {
	nodes              int
	bb                 float64
	submitted          bool
	started            bool
	terminal           bool
	submitAt, startAt  float64
	runSeen, stageSeen bool
}

// CheckSched validates a campaign result against the multi-tenant
// scheduling invariants, replaying the trace event-by-event:
//
//  1. capacity — the concurrently held node and BB-reservation totals
//     never exceed the cluster's at any virtual instant, at least one
//     node is always up, and both pools drain back to exactly zero;
//  2. lifecycle — every job's events run submit → (reject | start →
//     run → stage-out → end), failures only after start, one terminal
//     event per job, and virtual time never runs backwards;
//  3. conservation — submitted = completed + failed + rejected, and the
//     trace tallies, the per-job stats, the result counters, and the
//     sched_jobs_total series all agree on every term;
//  4. no starvation — every admitted job reaches a terminal outcome
//     (the scheduler additionally hard-errors on deadlock) and no
//     completed job's wait exceeds the campaign makespan;
//  5. accounting identities — per-job wait/response/bounded-slowdown
//     recompute exactly from the lifecycle instants, and the snapshot's
//     sched_* counters, wait histogram, peak gauges, makespan gauge,
//     and sim_events_total reproduce bit-for-bit from the trace replay
//     and the per-job stats.
//
//bbvet:allow unreached -- entry point of the seeded invariant harness, a test-only package by design
func CheckSched(cfg sched.Config, res *sched.Result) []string {
	var violations []string
	violation := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}
	if res == nil || res.Trace == nil || res.Metrics == nil {
		violation("result is missing its trace or metrics snapshot")
		return violations
	}
	if len(cfg.Jobs) > 0 && res.Trace.Events() == nil {
		violation("trace retains no events: run with TraceSink trace.Retain")
		return violations
	}
	cl := cfg.Cluster
	snap := res.Metrics

	stats := make(map[string]*sched.JobStat, len(res.Jobs))
	for i := range res.Jobs {
		if _, dup := stats[res.Jobs[i].ID]; dup {
			violation("duplicate job %s in result stats", res.Jobs[i].ID)
		}
		stats[res.Jobs[i].ID] = &res.Jobs[i]
	}

	// Invariants 1–2: replay the trace. Held-resource arithmetic repeats
	// the scheduler's own (whole-MiB reservations, integer node counts),
	// so the running totals and peaks are exact. Held nodes are bounded
	// by the cluster size, not the up-node count: at a failure instant
	// the node-fail event precedes the job-fail release.
	var (
		heldNodes, peakNodes           int
		heldBB, peakBB                 float64
		upNodes                        = cl.Nodes
		prev                           float64
		tSubmitted, tStarted           int
		tCompleted, tFailed, tRejected int
		tNodeFails, tNodeRepairs       int
		waitSum, respSum, sldSum       float64
	)
	replay := make(map[string]*schedReplay)
	for i, ev := range res.Trace.Events() {
		if ev.Time < prev {
			violation("event %d (%s %s): time %g runs backwards from %g", i, ev.Kind, ev.TaskID, ev.Time, prev)
		}
		prev = ev.Time
		j := replay[ev.TaskID]
		switch ev.Kind {
		case trace.JobSubmit:
			if j != nil {
				violation("job %s submitted twice", ev.TaskID)
				continue
			}
			replay[ev.TaskID] = &schedReplay{submitted: true, submitAt: ev.Time, nodes: int(ev.N), bb: ev.X}
			tSubmitted++
		case trace.JobReject:
			if j == nil || !j.submitted || j.started || j.terminal {
				violation("job %s rejected without a pending submission", ev.TaskID)
				continue
			}
			j.terminal = true
			tRejected++
		case trace.JobStart:
			if j == nil || j.started || j.terminal {
				violation("job %s started without a pending submission", ev.TaskID)
				continue
			}
			if int(ev.N) != j.nodes || differs(ev.X, j.bb) {
				violation("job %s: start demands (%d nodes, %g BB) differ from submitted (%d, %g)",
					ev.TaskID, ev.N, ev.X, j.nodes, j.bb)
			}
			j.started = true
			j.startAt = ev.Time
			tStarted++
			heldNodes += j.nodes
			heldBB += j.bb
			if heldNodes > peakNodes {
				peakNodes = heldNodes
			}
			if heldBB > peakBB {
				peakBB = heldBB
			}
			if heldNodes > cl.Nodes {
				violation("t=%g: %d nodes held on a %d-node cluster (oversubscribed starting %s)",
					ev.Time, heldNodes, cl.Nodes, ev.TaskID)
			}
			if cl.BBCapacity > 0 && heldBB > float64(cl.BBCapacity) {
				violation("t=%g: %g BB bytes reserved of %g capacity (oversubscribed starting %s)",
					ev.Time, heldBB, float64(cl.BBCapacity), ev.TaskID)
			}
		case trace.JobRun:
			if j == nil || !j.started || j.terminal || j.runSeen {
				violation("job %s: run phase out of order", ev.TaskID)
				continue
			}
			j.runSeen = true
		case trace.JobStageOut:
			if j == nil || !j.runSeen || j.terminal || j.stageSeen {
				violation("job %s: stage-out phase out of order", ev.TaskID)
				continue
			}
			j.stageSeen = true
		case trace.JobEnd:
			if j == nil || !j.stageSeen || j.terminal {
				violation("job %s ended out of order", ev.TaskID)
				continue
			}
			j.terminal = true
			tCompleted++
			heldNodes -= j.nodes
			heldBB -= j.bb
			// Commit the accounting sums in completion order — the order
			// the scheduler added them — so the counter identities below
			// are bitwise.
			if st := stats[ev.TaskID]; st != nil {
				waitSum += st.Wait
				respSum += st.Response
				sldSum += st.Slowdown
			} else {
				violation("job %s ended in the trace but has no result stat", ev.TaskID)
			}
		case trace.JobFail:
			if j == nil || !j.started || j.terminal {
				violation("job %s failed without running", ev.TaskID)
				continue
			}
			j.terminal = true
			tFailed++
			heldNodes -= j.nodes
			heldBB -= j.bb
		case trace.NodeFail:
			tNodeFails++
			upNodes--
			if upNodes < 1 {
				violation("t=%g: node failure left %d nodes up (one must survive)", ev.Time, upNodes)
			}
		case trace.NodeRepair:
			tNodeRepairs++
			upNodes++
			if upNodes > cl.Nodes {
				violation("t=%g: repair raised up-node count to %d of %d", ev.Time, upNodes, cl.Nodes)
			}
		}
	}
	if heldNodes != 0 || differs(heldBB, 0) {
		violation("campaign drained holding %d nodes and %g BB bytes (want zero)", heldNodes, heldBB)
	}
	if tNodeRepairs > tNodeFails {
		violation("%d node repairs exceed %d node failures", tNodeRepairs, tNodeFails)
	}

	// Invariant 3: conservation across the trace, the result tallies, the
	// per-job stats, and the metrics counters.
	if tSubmitted != tCompleted+tFailed+tRejected {
		violation("trace conservation: %d submitted != %d completed + %d failed + %d rejected",
			tSubmitted, tCompleted, tFailed, tRejected)
	}
	if res.Submitted != res.Completed+res.Failed+res.Rejected {
		violation("result conservation: %d submitted != %d completed + %d failed + %d rejected",
			res.Submitted, res.Completed, res.Failed, res.Rejected)
	}
	if tSubmitted != res.Submitted || tCompleted != res.Completed ||
		tFailed != res.Failed || tRejected != res.Rejected {
		violation("trace tallies (%d/%d/%d/%d submitted/completed/failed/rejected) differ from result (%d/%d/%d/%d)",
			tSubmitted, tCompleted, tFailed, tRejected,
			res.Submitted, res.Completed, res.Failed, res.Rejected)
	}
	if len(res.Jobs) != res.Submitted {
		violation("result has %d job stats for %d submitted jobs", len(res.Jobs), res.Submitted)
	}
	if tNodeFails != res.NodeFailures {
		violation("trace has %d node-fail events, result counts %d", tNodeFails, res.NodeFailures)
	}
	outcomes := map[string]int{
		metrics.OutcomeSubmitted: res.Submitted,
		metrics.OutcomeCompleted: res.Completed,
		metrics.OutcomeFailed:    res.Failed,
		metrics.OutcomeRejected:  res.Rejected,
	}
	for _, op := range []string{metrics.OutcomeSubmitted, metrics.OutcomeCompleted,
		metrics.OutcomeFailed, metrics.OutcomeRejected} {
		got := snap.Counter(metrics.SchedJobsTotal, metrics.Key{Op: op})
		if differs(got, float64(outcomes[op])) {
			violation("sched_jobs_total{%s} = %g, result says %d", op, got, outcomes[op])
		}
	}

	// Invariants 4–5: per-job terminal outcomes and the exact accounting
	// identities. The recomputations repeat the scheduler's expressions
	// on the same lifecycle instants, so every comparison is bitwise.
	statCounts := map[sched.Outcome]int{}
	for i := range res.Jobs {
		st := &res.Jobs[i]
		statCounts[st.Outcome]++
		r := replay[st.ID]
		if r == nil || !r.submitted {
			violation("job %s has a result stat but never appears in the trace", st.ID)
			continue
		}
		switch st.Outcome {
		case sched.Rejected:
			if r.started {
				violation("job %s marked rejected but started in the trace", st.ID)
			}
			continue
		case sched.Completed, sched.Failed:
			if !r.started || !r.terminal {
				violation("job %s marked %s but the trace shows started=%v terminal=%v — it starved",
					st.ID, st.Outcome, r.started, r.terminal)
				continue
			}
		default:
			violation("job %s has no terminal outcome (%q): it starved in the queue", st.ID, st.Outcome)
			continue
		}
		if differs(st.Submit, r.submitAt) || differs(st.Start, r.startAt) {
			violation("job %s: stat instants (submit %g, start %g) differ from trace (%g, %g)",
				st.ID, st.Submit, st.Start, r.submitAt, r.startAt)
		}
		if st.Start < st.Submit || st.End < st.Start {
			violation("job %s: lifecycle runs backwards (submit %g, start %g, end %g)",
				st.ID, st.Submit, st.Start, st.End)
		}
		if differs(st.Wait, st.Start-st.Submit) {
			violation("job %s: wait %g != start - submit = %g", st.ID, st.Wait, st.Start-st.Submit)
		}
		if st.Wait > res.Makespan {
			violation("job %s: wait %g exceeds the campaign makespan %g", st.ID, st.Wait, res.Makespan)
		}
		if st.Outcome == sched.Completed {
			if differs(st.Response, st.End-st.Submit) {
				violation("job %s: response %g != end - submit = %g", st.ID, st.Response, st.End-st.Submit)
			}
			// Bounded slowdown, threshold 10 s (sched's slowdownTau).
			sld := st.Response / math.Max(st.End-st.Start, 10)
			if sld < 1 {
				sld = 1
			}
			if differs(st.Slowdown, sld) {
				violation("job %s: slowdown %g != recomputed %g", st.ID, st.Slowdown, sld)
			}
		}
	}
	if statCounts[sched.Completed] != res.Completed || statCounts[sched.Failed] != res.Failed ||
		statCounts[sched.Rejected] != res.Rejected {
		violation("per-job outcomes (%d/%d/%d completed/failed/rejected) differ from result tallies (%d/%d/%d)",
			statCounts[sched.Completed], statCounts[sched.Failed], statCounts[sched.Rejected],
			res.Completed, res.Failed, res.Rejected)
	}

	// Snapshot identities: counters, the wait histogram, and the gauges
	// reproduce from the replay.
	for _, id := range []struct {
		family string
		want   float64
	}{
		{metrics.SchedWaitSecondsTotal, waitSum},
		{metrics.SchedResponseSecondsTotal, respSum},
		{metrics.SchedSlowdownTotal, sldSum},
		{metrics.SimEventsTotal, float64(res.Events)},
	} {
		if got := snap.Counter(id.family, metrics.Key{}); differs(got, id.want) {
			violation("%s = %g, replay says %g", id.family, got, id.want)
		}
	}
	for _, h := range snap.Histograms {
		if h.Family != metrics.SchedWaitSeconds {
			continue
		}
		if h.Count != uint64(res.Completed) {
			violation("sched_wait_seconds histogram observed %d waits for %d completed jobs", h.Count, res.Completed)
		}
		if differs(h.Sum, waitSum) {
			violation("sched_wait_seconds histogram sum %g, replay says %g", h.Sum, waitSum)
		}
	}
	gauges := []struct {
		family string
		want   float64
	}{
		{metrics.SchedNodesPeak, float64(peakNodes)},
		{metrics.SchedBBPeakBytes, peakBB},
		{metrics.MakespanSeconds, res.Makespan},
	}
	for _, g := range gauges {
		got, ok := snap.Gauge(g.family, metrics.Key{})
		if !ok {
			if res.Completed+res.Failed > 0 || g.family == metrics.MakespanSeconds {
				violation("snapshot has no %s gauge", g.family)
			}
			continue
		}
		if differs(got, g.want) {
			violation("%s = %g, replay says %g", g.family, got, g.want)
		}
	}
	if peakNodes > cl.Nodes {
		violation("peak node allocation %d exceeds the cluster's %d", peakNodes, cl.Nodes)
	}
	if cl.BBCapacity > 0 && peakBB > float64(cl.BBCapacity) {
		violation("peak BB reservation %g exceeds capacity %g", peakBB, float64(cl.BBCapacity))
	}
	return violations
}
