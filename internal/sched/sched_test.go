package sched

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"bbwfsim/internal/faults"
	"bbwfsim/internal/metrics"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/sim"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workloads"
)

// testCluster is a small contended platform: 4 nodes, 8 GiB of BB, a fast
// BB staging channel and a 4x slower PFS channel.
func testCluster() Cluster {
	return Cluster{
		Nodes:        4,
		BBCapacity:   8 * units.GiB,
		BBBandwidth:  units.Bandwidth(units.GiB),
		PFSBandwidth: units.Bandwidth(256 * units.MiB),
	}
}

// job builds a valid three-phase job with zero stage bytes (pure compute)
// unless data is set afterwards.
func job(id string, submit, runtime float64, nodes int, bb units.Bytes) workloads.Job {
	return workloads.Job{
		ID: id, Submit: submit, Runtime: runtime, Walltime: runtime,
		Nodes: nodes, BBDemand: bb,
	}
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(%s): %v", cfg.Policy, err)
	}
	return res
}

func statByID(t *testing.T, res *Result, id string) *JobStat {
	t.Helper()
	for i := range res.Jobs {
		if res.Jobs[i].ID == id {
			return &res.Jobs[i]
		}
	}
	t.Fatalf("job %s not in result", id)
	return nil
}

func TestRunValidation(t *testing.T) {
	good := []workloads.Job{job("a", 0, 10, 1, units.MiB)}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"no nodes", Config{Cluster: Cluster{BBBandwidth: 1, PFSBandwidth: 1}, Policy: PolicyFCFS, Jobs: good}, "needs nodes"},
		{"bad bandwidth", Config{Cluster: Cluster{Nodes: 1, PFSBandwidth: 1}, Policy: PolicyFCFS, Jobs: good}, "bandwidths"},
		{"negative capacity", Config{Cluster: Cluster{Nodes: 1, BBCapacity: -1, BBBandwidth: 1, PFSBandwidth: 1}, Policy: PolicyFCFS, Jobs: good}, "negative BB capacity"},
		{"empty policy", Config{Cluster: testCluster(), Jobs: good}, "empty policy"},
		{"unknown policy", Config{Cluster: testCluster(), Policy: "sjf", Jobs: good}, "unknown policy"},
		{"bad job", Config{Cluster: testCluster(), Policy: PolicyFCFS,
			Jobs: []workloads.Job{job("", 0, 10, 1, 0)}}, "empty ID"},
		{"out of order", Config{Cluster: testCluster(), Policy: PolicyFCFS,
			Jobs: []workloads.Job{job("a", 10, 10, 1, 0), job("b", 5, 10, 1, 0)}}, "out of submit order"},
		{"bad fault dist", Config{Cluster: testCluster(), Policy: PolicyFCFS, Jobs: good,
			Faults: &FaultPlan{Node: &faults.NodeProcess{Arrival: faults.Exp(-1), MTTR: 10}}}, "node failure"},
		{"bad MTTR", Config{Cluster: testCluster(), Policy: PolicyFCFS, Jobs: good,
			Faults: &FaultPlan{Node: &faults.NodeProcess{Arrival: faults.Exp(100)}}}, "MTTR"},
	}
	for _, c := range cases {
		if _, err := Run(c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.want)
		}
	}
}

func TestPoliciesCatalog(t *testing.T) {
	for _, name := range Policies() {
		if _, err := newPolicy(name); err != nil {
			t.Fatalf("newPolicy(%s): %v", name, err)
		}
	}
}

// TestFCFSHeadOfLineBlocking pins the FCFS-vs-EASY contrast on a crafted
// campaign: a full-cluster head blocks a short narrow job under FCFS,
// while EASY backfills it into the shadow of the head's reservation.
func TestFCFSHeadOfLineBlocking(t *testing.T) {
	jobs := []workloads.Job{
		job("wide-a", 0, 100, 3, units.GiB),
		job("wide-b", 1, 100, 4, units.GiB),
		job("narrow", 2, 10, 1, units.MiB),
	}
	fcfs := mustRun(t, Config{Cluster: testCluster(), Policy: PolicyFCFS, Jobs: jobs})
	easy := mustRun(t, Config{Cluster: testCluster(), Policy: PolicyEASY, Jobs: jobs})

	if got := statByID(t, fcfs, "narrow").Start; got < statByID(t, fcfs, "wide-b").Start {
		t.Errorf("fcfs started narrow (t=%g) before wide-b (t=%g)", got, statByID(t, fcfs, "wide-b").Start)
	}
	// EASY backfills narrow while wide-a runs: 2+10 <= wide-a's estimated
	// release at t=100.
	if got := statByID(t, easy, "narrow").Start; got > 2.5 {
		t.Errorf("easy did not backfill narrow: started at t=%g", got)
	}
	if statByID(t, easy, "wide-b").Start > statByID(t, fcfs, "wide-b").Start {
		t.Errorf("easy delayed the head: wide-b at t=%g vs fcfs t=%g",
			statByID(t, easy, "wide-b").Start, statByID(t, fcfs, "wide-b").Start)
	}
	if easy.MeanWait() >= fcfs.MeanWait() {
		t.Errorf("easy mean wait %g not better than fcfs %g", easy.MeanWait(), fcfs.MeanWait())
	}
}

// TestBackfillRespectsShadow pins the EASY safety property: a backfill
// candidate that would overrun the head's shadow and eat its nodes must
// not start.
func TestBackfillRespectsShadow(t *testing.T) {
	cl := testCluster()
	jobs := []workloads.Job{
		job("running", 0, 100, 3, units.GiB), // leaves 1 node free
		job("head", 1, 50, 4, units.GiB),     // reserved at t≈100
		job("long-narrow", 2, 500, 1, units.MiB),
	}
	res := mustRun(t, Config{Cluster: cl, Policy: PolicyEASY, Jobs: jobs})
	// long-narrow fits the free node now but would hold it past the
	// head's shadow (t≈100) while leaving only 3 nodes spare — so it must
	// wait for the head.
	if got, headStart := statByID(t, res, "long-narrow").Start, statByID(t, res, "head").Start; got < headStart {
		t.Errorf("backfill overran the shadow: long-narrow at t=%g, head at t=%g", got, headStart)
	}
}

// TestPlanReservesBB pins the plan policy's two-resource profile: a job
// whose nodes fit but whose BB bytes are promised to an earlier queued job
// must wait for its planned slot.
func TestPlanReservesBB(t *testing.T) {
	cl := testCluster() // 8 GiB BB
	jobs := []workloads.Job{
		job("holder", 0, 100, 1, 6*units.GiB),
		job("queued-big", 1, 10, 1, 7*units.GiB), // plans at holder's release
		job("small", 2, 10, 1, 4*units.GiB),      // would starve queued-big's BB slot
	}
	res := mustRun(t, Config{Cluster: cl, Policy: PolicyPlan, Jobs: jobs})
	big := statByID(t, res, "queued-big")
	small := statByID(t, res, "small")
	// small fits now on nodes and free BB (2 GiB free... it does not fit:
	// 4 > 2), but even a fitting filler must not push queued-big past the
	// slot the plan promised it: big starts at holder's release.
	if big.Start > 101 {
		t.Errorf("plan pushed queued-big to t=%g, want at holder release ≈100", big.Start)
	}
	if small.Start < big.Start {
		t.Errorf("plan let small (t=%g) jump queued-big's BB reservation (t=%g)", small.Start, big.Start)
	}
	for _, j := range res.Jobs {
		if j.Outcome != Completed {
			t.Errorf("job %s: outcome %s", j.ID, j.Outcome)
		}
	}
}

// TestGreedyOrdering pins the BBSimulator greedy pair: MaxBurstBuffer
// starts the biggest reservation first, MaxParallel the narrowest jobs.
func TestGreedyOrdering(t *testing.T) {
	cl := Cluster{Nodes: 2, BBCapacity: 3 * units.GiB,
		BBBandwidth: units.Bandwidth(units.GiB), PFSBandwidth: units.Bandwidth(256 * units.MiB)}
	jobs := []workloads.Job{
		job("blocker", 0, 50, 2, 0),
		job("small-bb", 1, 10, 1, units.GiB),
		job("big-bb", 2, 10, 1, 2*units.GiB),
	}
	maxbb := mustRun(t, Config{Cluster: cl, Policy: PolicyMaxBB, Jobs: jobs})
	fcfs := mustRun(t, Config{Cluster: cl, Policy: PolicyFCFS, Jobs: jobs})
	// Both fit together (3 GiB), so shrink the contrast: big+small = 3 GiB
	// fits; use start order of the pick pass instead — maxbb picks big-bb
	// first, so its start must not follow small-bb's.
	if statByID(t, maxbb, "big-bb").Start > statByID(t, maxbb, "small-bb").Start {
		t.Errorf("maxbb started small-bb before big-bb")
	}
	if statByID(t, fcfs, "small-bb").Start > statByID(t, fcfs, "big-bb").Start {
		t.Errorf("fcfs started big-bb before small-bb")
	}

	clN := Cluster{Nodes: 2, BBCapacity: 8 * units.GiB,
		BBBandwidth: units.Bandwidth(units.GiB), PFSBandwidth: units.Bandwidth(256 * units.MiB)}
	jobsN := []workloads.Job{
		job("blocker", 0, 50, 2, 0),
		job("wide", 1, 10, 2, units.MiB),
		job("narrow-a", 2, 10, 1, units.MiB),
		job("narrow-b", 3, 10, 1, units.MiB),
	}
	maxpar := mustRun(t, Config{Cluster: clN, Policy: PolicyMaxParallel, Jobs: jobsN})
	if statByID(t, maxpar, "narrow-a").Start > statByID(t, maxpar, "wide").Start ||
		statByID(t, maxpar, "narrow-b").Start > statByID(t, maxpar, "wide").Start {
		t.Errorf("maxparallel did not start the narrow pair first: narrow at t=%g/%g, wide at t=%g",
			statByID(t, maxpar, "narrow-a").Start, statByID(t, maxpar, "narrow-b").Start,
			statByID(t, maxpar, "wide").Start)
	}
}

// TestDirectIOStagesThroughPFS pins the DirectIO baseline: no BB
// reservation, stage phases on the slower PFS channel.
func TestDirectIOStagesThroughPFS(t *testing.T) {
	cl := testCluster()
	j := job("io", 0, 10, 1, units.GiB)
	j.StageIn = units.GiB
	j.StageOut = units.GiB
	jobs := []workloads.Job{j}

	bb := mustRun(t, Config{Cluster: cl, Policy: PolicyFCFS, Jobs: jobs})
	dio := mustRun(t, Config{Cluster: cl, Policy: PolicyDirectIO, Jobs: jobs})

	if got := statByID(t, dio, "io").BB; got > 0 {
		t.Errorf("directio job holds a BB reservation of %v", got)
	}
	// BB path: 1 GiB each way at 1 GiB/s → 10+2 s. PFS path: 4 s each
	// way → 10+8 s.
	if math.Abs(bb.Makespan-12) > 1e-6 {
		t.Errorf("BB-staged makespan %g, want 12", bb.Makespan)
	}
	if math.Abs(dio.Makespan-18) > 1e-6 {
		t.Errorf("directio makespan %g, want 18", dio.Makespan)
	}
	if v, ok := dio.Metrics.Gauge("sched_bb_peak_bytes", metrics.Key{}); ok && v > 0 {
		t.Errorf("directio BB peak gauge %g, want 0", v)
	}
}

// TestRejection pins admission: jobs beyond whole-cluster capacity are
// rejected at submit, and the outcome conservation identity holds.
func TestRejection(t *testing.T) {
	cl := testCluster()
	jobs := []workloads.Job{
		job("too-wide", 0, 10, 8, units.MiB),
		job("too-hungry", 1, 10, 1, 16*units.GiB),
		job("fits", 2, 10, 1, units.GiB),
	}
	res := mustRun(t, Config{Cluster: cl, Policy: PolicyFCFS, Jobs: jobs})
	if res.Rejected != 2 || res.Completed != 1 || res.Failed != 0 {
		t.Fatalf("outcomes completed/failed/rejected = %d/%d/%d, want 1/0/2",
			res.Completed, res.Failed, res.Rejected)
	}
	if res.Submitted != res.Completed+res.Failed+res.Rejected {
		t.Errorf("conservation: %d submitted != %d+%d+%d", res.Submitted, res.Completed, res.Failed, res.Rejected)
	}
	if got := res.Trace.CountKind(trace.JobReject); got != 2 {
		t.Errorf("trace has %d job-reject events, want 2", got)
	}
	if got := statByID(t, res, "too-wide").Outcome; got != Rejected {
		t.Errorf("too-wide outcome %s", got)
	}
	if got := res.Metrics.Counter("sched_jobs_total", metrics.Key{Op: metrics.OutcomeRejected}); got != 2 {
		t.Errorf("rejected counter %g, want 2", got)
	}
	// A directio policy ignores BB demands: too-hungry is admitted.
	dio := mustRun(t, Config{Cluster: cl, Policy: PolicyDirectIO, Jobs: jobs})
	if dio.Rejected != 1 {
		t.Errorf("directio rejected %d jobs, want 1 (nodes only)", dio.Rejected)
	}
}

// TestCampaignAllPoliciesConserve runs a generated 300-job campaign under
// every policy and checks the ledger identities every run must satisfy.
func TestCampaignAllPoliciesConserve(t *testing.T) {
	jobs, err := workloads.Campaign(workloads.CampaignSpec{Jobs: 300, Seed: 11, MaxNodes: 4, BBMean: units.GiB})
	if err != nil {
		t.Fatal(err)
	}
	cl := testCluster()
	for _, pol := range Policies() {
		res := mustRun(t, Config{Cluster: cl, Policy: pol, Jobs: jobs})
		if res.Submitted != res.Completed+res.Failed+res.Rejected {
			t.Errorf("%s: conservation %d != %d+%d+%d", pol, res.Submitted, res.Completed, res.Failed, res.Rejected)
		}
		if res.Completed == 0 {
			t.Errorf("%s: nothing completed", pol)
		}
		for i := range res.Jobs {
			j := &res.Jobs[i]
			if j.Outcome != Completed {
				continue
			}
			if j.Start < j.Submit || j.End < j.Start {
				t.Errorf("%s %s: non-monotone lifecycle %g/%g/%g", pol, j.ID, j.Submit, j.Start, j.End)
			}
			if j.Slowdown < 1 {
				t.Errorf("%s %s: bounded slowdown %g < 1", pol, j.ID, j.Slowdown)
			}
			if math.Abs(j.Wait-(j.Start-j.Submit)) > 1e-9 {
				t.Errorf("%s %s: wait %g != start-submit %g", pol, j.ID, j.Wait, j.Start-j.Submit)
			}
		}
	}
}

// TestDeterminismBitwise pins the hard requirement: two runs of the same
// Config produce identical traces, metrics, and per-job statistics —
// including under a fault campaign.
func TestDeterminismBitwise(t *testing.T) {
	jobs, err := workloads.Campaign(workloads.CampaignSpec{Jobs: 150, Seed: 5, MaxNodes: 4, BBMean: 2 * units.GiB})
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range Policies() {
		cfg := Config{
			Cluster: testCluster(), Policy: pol, Jobs: jobs,
			Faults:    &FaultPlan{Seed: 99, Node: &faults.NodeProcess{Arrival: faults.Exp(2000), MTTR: 500, Budget: 4}},
			TraceSink: trace.Retain,
		}
		a := mustRun(t, cfg)
		b := mustRun(t, cfg)
		if !reflect.DeepEqual(a.Jobs, b.Jobs) {
			t.Fatalf("%s: per-job stats differ between identical runs", pol)
		}
		if !reflect.DeepEqual(a.Trace.Events(), b.Trace.Events()) {
			t.Fatalf("%s: traces differ between identical runs", pol)
		}
		aj, _ := a.Metrics.JSON()
		bj, _ := b.Metrics.JSON()
		if string(aj) != string(bj) {
			t.Fatalf("%s: metrics snapshots differ between identical runs", pol)
		}
	}
}

// TestFaultCampaign pins fault-path accounting: injected node failures
// kill holding jobs, tallies agree between result, trace, and metrics,
// and the campaign still drains.
func TestFaultCampaign(t *testing.T) {
	jobs, err := workloads.Campaign(workloads.CampaignSpec{Jobs: 120, Seed: 3, MaxNodes: 3, BBMean: units.GiB})
	if err != nil {
		t.Fatal(err)
	}
	cl := testCluster()
	res := mustRun(t, Config{
		Cluster: cl, Policy: PolicyEASY, Jobs: jobs,
		Faults: &FaultPlan{Seed: 17, Node: &faults.NodeProcess{Arrival: faults.Exp(500), MTTR: 300, Budget: 8}},
	})
	if res.NodeFailures == 0 {
		t.Fatal("fault campaign injected no node failures")
	}
	if got := res.Trace.CountKind(trace.NodeFail); got != res.NodeFailures {
		t.Errorf("trace node-fail count %d != result %d", got, res.NodeFailures)
	}
	if got := res.Trace.CountKind(trace.JobFail); got != res.Failed {
		t.Errorf("trace job-fail count %d != result %d", got, res.Failed)
	}
	if res.Submitted != res.Completed+res.Failed+res.Rejected {
		t.Errorf("conservation under faults: %d != %d+%d+%d", res.Submitted, res.Completed, res.Failed, res.Rejected)
	}
	if got := res.Metrics.Counter("sched_jobs_total", metrics.Key{Op: metrics.OutcomeFailed}); got != float64(res.Failed) {
		t.Errorf("failed counter %g != %d", got, res.Failed)
	}
	for i := range res.Jobs {
		if j := &res.Jobs[i]; j.Outcome == Failed && (j.Response > 0 || j.Slowdown > 0) {
			t.Errorf("failed job %s has response/slowdown accounting %g/%g", j.ID, j.Response, j.Slowdown)
		}
	}
}

// TestChannelFairShare pins the max–min channel: concurrent transfers
// split the bandwidth equally and completions re-divide it.
func TestChannelFairShare(t *testing.T) {
	eng := sim.NewEngine()
	ch := newChannel(eng, 100)
	var doneA, doneB, doneC float64
	ch.add(100, func() { doneA = eng.Now() })
	ch.add(100, func() { doneB = eng.Now() })
	eng.At(0.5, func() { ch.add(25, func() { doneC = eng.Now() }) })
	eng.Run()
	// A and B share 50 B/s each; C joins at 0.5 with 25 bytes. From 0.5 on
	// each gets 100/3 B/s: C finishes at 0.5+0.75=1.25; A and B then hold
	// 50-(25/3×... — just pin the invariants: C first, A=B after.
	if doneC <= 0.5 || doneC >= doneA {
		t.Errorf("late short transfer finished at %g, want between 0.5 and %g", doneC, doneA)
	}
	if math.Abs(doneA-doneB) > 1e-9 {
		t.Errorf("equal transfers finished apart: %g vs %g", doneA, doneB)
	}
	if doneA <= 2 { // alone they'd take 1 s each; sharing must stretch both past 2 s total
		t.Errorf("shared transfers finished at %g, want > 2 (bandwidth was shared)", doneA)
	}

	// Cancellation returns the share to the survivors.
	eng2 := sim.NewEngine()
	ch2 := newChannel(eng2, 100)
	var doneD float64
	cancelled := false
	ch2.add(100, func() { doneD = eng2.Now() })
	tr := ch2.add(100, func() { cancelled = true })
	eng2.At(0.5, func() { tr.cancel() })
	eng2.Run()
	if cancelled {
		t.Error("cancelled transfer's callback fired")
	}
	// D: 0.5 s at 50 B/s (25 bytes), then 75 bytes at 100 B/s → 1.25 s.
	if math.Abs(doneD-1.25) > 1e-6 {
		t.Errorf("survivor finished at %g, want 1.25", doneD)
	}

	// Zero-byte transfers complete without entering the channel.
	eng3 := sim.NewEngine()
	ch3 := newChannel(eng3, 100)
	fired := false
	ch3.add(0, func() { fired = true })
	eng3.Run()
	if !fired {
		t.Error("zero-byte transfer never completed")
	}
}

func TestClusterFromPlatform(t *testing.T) {
	cfg := platform.Config{
		Nodes:  8,
		BBKind: platform.BBOnNode,
		BB:     platform.StorageConfig{DiskBW: units.Bandwidth(units.GiB), Capacity: 2 * units.GiB},
		PFS:    platform.StorageConfig{DiskBW: units.Bandwidth(512 * units.MiB)},
	}
	cl := ClusterFromPlatform(cfg)
	if cl.Nodes != 8 {
		t.Errorf("nodes %d", cl.Nodes)
	}
	if cl.BBCapacity != 16*units.GiB {
		t.Errorf("on-node capacity %v, want 16 GiB aggregate", cl.BBCapacity)
	}
	if cl.BBBandwidth != units.Bandwidth(8*units.GiB) {
		t.Errorf("on-node bandwidth %v, want 8 GiB/s aggregate", cl.BBBandwidth)
	}
	cfg.BBKind = platform.BBShared
	cl = ClusterFromPlatform(cfg)
	if cl.BBCapacity != 2*units.GiB || cl.BBBandwidth != units.Bandwidth(units.GiB) {
		t.Errorf("shared cluster got %v/%v", cl.BBCapacity, cl.BBBandwidth)
	}
	if cl.PFSBandwidth != units.Bandwidth(512*units.MiB) {
		t.Errorf("PFS bandwidth %v", cl.PFSBandwidth)
	}
}

// TestUnlimitedBB pins the zero-capacity convention: BBCapacity 0 means
// unbounded reservations, never instant rejection.
func TestUnlimitedBB(t *testing.T) {
	cl := testCluster()
	cl.BBCapacity = 0
	jobs := []workloads.Job{
		job("a", 0, 10, 1, 100*units.GiB),
		job("b", 0, 10, 1, 100*units.GiB),
	}
	res := mustRun(t, Config{Cluster: cl, Policy: PolicyFCFS, Jobs: jobs})
	if res.Rejected != 0 || res.Completed != 2 {
		t.Errorf("unlimited BB rejected %d completed %d", res.Rejected, res.Completed)
	}
}

// TestDefaultTraceCounts: a campaign without a TraceSink keeps no event
// log, yet counts every kind and reports the same campaign as one that
// retains its trace.
func TestDefaultTraceCounts(t *testing.T) {
	jobs, err := workloads.Campaign(workloads.CampaignSpec{Jobs: 80, Seed: 4, MaxNodes: 4, BBMean: 2 * units.GiB})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Cluster: testCluster(), Policy: PolicyPlan, Jobs: jobs}
	counted := mustRun(t, cfg)
	cfg.TraceSink = trace.Retain
	kept := mustRun(t, cfg)
	if ev := counted.Trace.Events(); ev != nil {
		t.Fatalf("default campaign kept %d events", len(ev))
	}
	if len(kept.Trace.Events()) == 0 {
		t.Fatal("retaining campaign kept no events")
	}
	for _, k := range []trace.EventKind{trace.JobSubmit, trace.JobStart, trace.JobRun, trace.JobStageOut, trace.JobEnd} {
		if a, b := counted.Trace.CountKind(k), kept.Trace.CountKind(k); a != b || a == 0 {
			t.Errorf("%s: counted %d, retained %d", k, a, b)
		}
	}
	if !reflect.DeepEqual(counted.Jobs, kept.Jobs) || counted.Makespan != kept.Makespan {
		t.Error("retaining the trace changed the campaign")
	}
}
