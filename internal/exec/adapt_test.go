package exec_test

import (
	"testing"

	"bbwfsim/internal/adapt"
	"bbwfsim/internal/ckpt"
	"bbwfsim/internal/exec"
	"bbwfsim/internal/metrics"
	"bbwfsim/internal/placement"
	"bbwfsim/internal/storage"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

// auditor is a Background load that audits the storage capacity accounting
// on a fixed virtual-time grid while the run is still in flight, so a
// double release or leaked reservation is caught at the instant it happens,
// not just at the end of the run.
type auditor struct {
	t     *testing.T
	every float64
	until float64
}

func (a *auditor) Start(sys *storage.System, _ *workflow.Workflow) {
	for at := a.every; at <= a.until; at += a.every {
		when := at
		sys.Platform().Engine().After(when, func() {
			if err := sys.AuditCapacity(); err != nil {
				a.t.Errorf("capacity audit at t=%g: %v", when, err)
			}
		})
	}
}

// TestPressureSpillDrainsBB: a two-task chain whose outputs overflow the
// high-water mark. The spill loop must copy the cold replica to the PFS,
// evict it, keep draining to the low-water mark, and account every byte.
func TestPressureSpillDrainsBB(t *testing.T) {
	cfg := testConfig(1, 4)
	cfg.BB.Capacity = 100 * units.MB
	sys := newSystem(t, cfg)
	wf := workflow.New("chain")
	wf.MustAddFile("a", 40*units.MB)
	wf.MustAddFile("b", 40*units.MB)
	wf.MustAddTask(workflow.TaskSpec{ID: "t1", Work: 1e9, Outputs: []string{"a"}})
	wf.MustAddTask(workflow.TaskSpec{ID: "t2", Work: 1e9, Inputs: []string{"a"}, Outputs: []string{"b"}})
	// t3 keeps the run alive past the spill copies: the engine stops at the
	// last task's finish, abandoning whatever is still in flight.
	wf.MustAddTask(workflow.TaskSpec{ID: "t3", Work: 2e9, Inputs: []string{"b"}})
	col := metrics.New("test", "chain")
	tr, err := exec.Run(sys, wf, exec.Config{
		Placement: placement.NewExplicit("bb", []string{"a", "b"}),
		Adapt:     adapt.Policy{SpillHighWater: 0.5, SpillLowWater: 0.25},
		Metrics:   col,
	})
	if err != nil {
		t.Fatal(err)
	}
	// t2's write of b pushes occupancy to 80 MB (> 50 MB high water); the
	// drain spills a, then b, down past the 25 MB low-water mark.
	if got := tr.CountKind(trace.AdaptSpill); got != 2 {
		t.Errorf("AdaptSpill count = %d, want 2", got)
	}
	for _, id := range []string{"a", "b"} {
		f := wf.File(id)
		if !sys.Registry().Has(f, sys.PFS()) {
			t.Errorf("%s not on PFS after spill", id)
		}
		if sys.Registry().Has(f, sys.AllBBs()[0]) {
			t.Errorf("%s still on BB after spill", id)
		}
	}
	if used := sys.AllBBs()[0].Used(); used != 0 {
		t.Errorf("BB used = %v after drain, want 0", used)
	}
	snap := col.Snapshot()
	want := float64(80 * units.MB)
	if got := snap.Counter(metrics.AdaptBytesTotal, metrics.Key{Tier: "shared-bb", Op: metrics.OpSpill}); got != want {
		t.Errorf("adapt spill bytes = %g, want %g", got, want)
	}
	if err := sys.AuditCapacity(); err != nil {
		t.Errorf("capacity audit: %v", err)
	}
}

// TestAuditCapacityHoldsDuringSpillAndDrain: a pressure spill running
// concurrently with a mid-drain checkpoint — two independent BB→PFS copy
// paths that each evict their source on completion. The capacity audit must
// hold on a fine virtual-time grid throughout: every reservation released
// exactly once, no matter how the two drains interleave.
func TestAuditCapacityHoldsDuringSpillAndDrain(t *testing.T) {
	cfg := testConfig(1, 4)
	cfg.BB.Capacity = 200 * units.MB
	sys := newSystem(t, cfg)
	wf := workflow.New("spill+drain")
	wf.MustAddFile("a", 120*units.MB)
	wf.MustAddTask(workflow.TaskSpec{ID: "p", Work: 1e9, Outputs: []string{"a"}})
	wf.MustAddTask(workflow.TaskSpec{ID: "c", Work: 10e9, Inputs: []string{"a"}})
	tr, err := exec.Run(sys, wf, exec.Config{
		Placement: placement.NewExplicit("bb", []string{"a"}),
		Adapt:     adapt.Policy{SpillHighWater: 0.5, SpillLowWater: 0.25},
		Checkpoint: ckpt.Policy{
			Interval: 2, Target: ckpt.TargetBB, Drain: true, DrainDelay: 0.2,
			MinSize: 40 * units.MB,
		},
		Background: []exec.Background{&auditor{t: t, every: 0.25, until: 20}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.CountKind(trace.AdaptSpill); got == 0 {
		t.Error("no spill fired; the test exercises nothing")
	}
	if got := tr.CountKind(trace.CkptDrain); got == 0 {
		t.Error("no checkpoint drain completed; the test exercises nothing")
	}
	if err := sys.AuditCapacity(); err != nil {
		t.Errorf("final capacity audit: %v", err)
	}
}

// TestNodeFailureMidSpill: the node whose private BB replica is being
// spilled dies while the spill copy is in flight. The copy must be
// cancelled with its source (one release, not two), lineage recovery must
// regenerate the file, and the run must still complete with clean
// accounting.
func TestNodeFailureMidSpill(t *testing.T) {
	cfg := testConfig(2, 4)
	cfg.BB.Capacity = 200 * units.MB
	sys := newSystem(t, cfg)
	wf := workflow.New("fail-mid-spill")
	wf.MustAddFile("a", 120*units.MB)
	wf.MustAddFile("b", 40*units.MB)
	wf.MustAddTask(workflow.TaskSpec{ID: "p1", Work: 1e9, Outputs: []string{"a"}})
	wf.MustAddTask(workflow.TaskSpec{ID: "p2", Work: 2e9, Inputs: []string{"a"}, Outputs: []string{"b"}})
	// p3 keeps the run alive through the failure and the recovery.
	wf.MustAddTask(workflow.TaskSpec{ID: "p3", Work: 3e9, Inputs: []string{"b"}})
	fm := &scripted{script: func(ctrl exec.FaultController) {
		// p2's write of b (~t=3.3) pushes occupancy past high water and the
		// spill of a starts: a 1.2 s PFS copy. Fail a's creator node mid-copy;
		// the private-mode replica dies and the spill must die with it.
		ctrl.System().Platform().Engine().After(3.8, func() {
			ctrl.FailNode(ctrl.System().Platform().Node(0), "scripted failure")
		})
	}}
	tr, err := exec.Run(sys, wf, exec.Config{
		Placement:  placement.NewExplicit("bb", []string{"a", "b"}),
		Adapt:      adapt.Policy{SpillHighWater: 0.5, SpillLowWater: 0.25},
		Faults:     fm,
		Retry:      exec.RetryPolicy{MaxRetries: 2},
		Background: []exec.Background{&auditor{t: t, every: 0.25, until: 20}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.CountKind(trace.NodeFail); got != 1 {
		t.Fatalf("NodeFail count = %d, want 1", got)
	}
	// The sole BB replica died, so p1 must have re-executed.
	if got := tr.CountKind(trace.TaskRetry); got == 0 {
		t.Error("replica loss triggered no lineage re-execution")
	}
	if err := sys.AuditCapacity(); err != nil {
		t.Errorf("capacity audit: %v", err)
	}
}

// TestDegradationWindowDuringReplication: a degradation window opens on the
// source buffer between the replication decision (a node failure) and the
// completion of its copy. The in-flight copy must proceed exactly once —
// the window's own replication sweep must not start a duplicate.
func TestDegradationWindowDuringReplication(t *testing.T) {
	cfg := testConfig(3, 4)
	sys := newSystem(t, cfg)
	wf := workflow.New("degrade-mid-repl")
	wf.MustAddFile("a", 80*units.MB)
	wf.MustAddFile("b", 8*units.MB)
	wf.MustAddTask(workflow.TaskSpec{ID: "p1", Work: 1e9, Outputs: []string{"a"}})
	wf.MustAddTask(workflow.TaskSpec{ID: "p2", Work: 3e9, Inputs: []string{"a"}, Outputs: []string{"b"}})
	fm := &scripted{script: func(ctrl exec.FaultController) {
		eng := ctrl.System().Platform().Engine()
		// Fail an idle node at t=1.2: the sweep finds p2's sole-replica input
		// a and starts its PFS copy (80 MB, ~0.8 s). Open a degradation
		// window on the source buffer mid-copy, close it later.
		eng.After(1.2, func() {
			ctrl.FailNode(ctrl.System().Platform().Node(2), "scripted failure")
		})
		eng.After(1.5, func() { ctrl.SetDegraded(ctrl.System().AllBBs()[0], true) })
		eng.After(2.5, func() { ctrl.SetDegraded(ctrl.System().AllBBs()[0], false) })
	}}
	col := metrics.New("test", "degrade-mid-repl")
	tr, err := exec.Run(sys, wf, exec.Config{
		Placement: placement.NewExplicit("bb", []string{"a"}),
		Adapt:     adapt.Policy{ReplicateOnFault: true},
		Faults:    fm,
		Retry:     exec.RetryPolicy{MaxRetries: 2},
		Metrics:   col,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.CountKind(trace.AdaptReplicate); got != 1 {
		t.Errorf("AdaptReplicate count = %d, want exactly 1 (no duplicate from the window's sweep)", got)
	}
	if !sys.Registry().Has(wf.File("a"), sys.PFS()) {
		t.Error("a not on PFS after replication")
	}
	snap := col.Snapshot()
	want := float64(80 * units.MB)
	if got := snap.Counter(metrics.AdaptBytesTotal, metrics.Key{Tier: "shared-bb", Op: metrics.OpReplicate}); got != want {
		t.Errorf("adapt replicate bytes = %g, want %g", got, want)
	}
	if err := sys.AuditCapacity(); err != nil {
		t.Errorf("capacity audit: %v", err)
	}
}

// TestSpillRacesEvictAfterLastRead: the last consumer of a file finishes
// while a spill copy of that same file is in flight. EvictAfterLastRead
// must win — the spill is cancelled, the replica freed exactly once, and no
// pointless PFS copy completes.
func TestSpillRacesEvictAfterLastRead(t *testing.T) {
	cfg := testConfig(1, 4)
	cfg.BB.Capacity = 600 * units.MB
	sys := newSystem(t, cfg)
	wf := workflow.New("spill-vs-evict")
	wf.MustAddFile("a", 400*units.MB)
	wf.MustAddFile("c", 150*units.MB)
	wf.MustAddFile("d", 8*units.MB)
	wf.MustAddTask(workflow.TaskSpec{ID: "p1", Work: 1e9, Outputs: []string{"a"}})
	wf.MustAddTask(workflow.TaskSpec{ID: "p2", Work: 1e9, Inputs: []string{"a"}, Outputs: []string{"d"}})
	wf.MustAddTask(workflow.TaskSpec{ID: "p3", Work: 1.6e9, Outputs: []string{"c"}})
	tr, err := exec.Run(sys, wf, exec.Config{
		Placement:          placement.NewExplicit("bb", []string{"a", "c"}),
		Adapt:              adapt.Policy{SpillHighWater: 0.5, SpillLowWater: 0.25},
		EvictAfterLastRead: true,
		Background:         []exec.Background{&auditor{t: t, every: 0.25, until: 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// p3's write of c (t=1.6) starts a 4 s spill copy of a; p2 — a's last
	// reader — finishes at ~t=3.1 and evicts a, cancelling the spill. No
	// spill completes: a is gone everywhere, c keeps its BB replica.
	if got := tr.CountKind(trace.AdaptSpill); got != 0 {
		t.Errorf("AdaptSpill count = %d, want 0 (the only spill must be cancelled by the eviction)", got)
	}
	if locs := sys.Registry().Locations(wf.File("a")); len(locs) != 0 {
		t.Errorf("a still located on %d services after last-read eviction", len(locs))
	}
	if used, want := sys.AllBBs()[0].Used(), units.Bytes(150*units.MB); used != want {
		t.Errorf("BB used = %v, want %v (only c)", used, want)
	}
	if err := sys.AuditCapacity(); err != nil {
		t.Errorf("capacity audit: %v", err)
	}
}

// TestDegradedFallbackRedirectsWrites: inside an open degradation window a
// task write bound for the degraded buffer must land on the PFS instead,
// and the redirect must be recorded in the trace.
func TestDegradedFallbackRedirectsWrites(t *testing.T) {
	sys := newSystem(t, testConfig(1, 4))
	wf := workflow.New("fallback")
	wf.MustAddFile("out", 80*units.MB)
	wf.MustAddTask(workflow.TaskSpec{ID: "p", Work: 2e9, Outputs: []string{"out"}})
	fm := &scripted{script: func(ctrl exec.FaultController) {
		ctrl.System().Platform().Engine().After(0.5, func() {
			ctrl.SetDegraded(ctrl.System().AllBBs()[0], true)
		})
		ctrl.System().Platform().Engine().After(10, func() {
			ctrl.SetDegraded(ctrl.System().AllBBs()[0], false)
		})
	}}
	tr, err := exec.Run(sys, wf, exec.Config{
		Placement: placement.NewExplicit("bb", []string{"out"}),
		Adapt:     adapt.Policy{DegradedFallback: true},
		Faults:    fm,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.CountKind(trace.AdaptFallback); got != 1 {
		t.Errorf("AdaptFallback count = %d, want 1", got)
	}
	if !sys.Registry().Has(wf.File("out"), sys.PFS()) {
		t.Error("out not on PFS after degraded fallback")
	}
	if sys.Registry().Has(wf.File("out"), sys.AllBBs()[0]) {
		t.Error("out placed on the degraded BB despite the fallback")
	}
	// 2 s compute + 80 MB at the PFS's 100 MB/s (not the BB's 800 MB/s).
	if !approx(tr.Makespan(), 2.8, 1e-9) {
		t.Errorf("makespan = %v, want 2.8 (write redirected to the PFS)", tr.Makespan())
	}
}

// TestOverlappingPressureWavesSpillEachReplicaOnce is the multi-tenant
// regression for the spill loop's mid-spill exclusion: three concurrent
// writers — jobs sharing one burst buffer — push occupancy over the
// high-water mark twice, the second wave arriving while the first wave's
// spill copies are still in flight. The victim scan must skip replicas
// already mid-spill (without the guard the second wave would re-pick the
// first candidate, copy it twice, and double-release its space on the
// second eviction), so every replica spills exactly once and the capacity
// audit holds on a fine virtual-time grid throughout.
func TestOverlappingPressureWavesSpillEachReplicaOnce(t *testing.T) {
	cfg := testConfig(1, 4)
	cfg.BB.Capacity = 250 * units.MB
	sys := newSystem(t, cfg)
	wf := workflow.New("waves")
	wf.MustAddFile("a", 60*units.MB)
	wf.MustAddFile("b", 60*units.MB)
	wf.MustAddFile("c", 60*units.MB)
	// Staggered completions: a lands first (below high water), b tips the
	// first wave (which starts slow 100 MB/s spill copies of a and b), and
	// c lands while those copies are still in flight — the second wave.
	wf.MustAddTask(workflow.TaskSpec{ID: "t1", Work: 1e9, Outputs: []string{"a"}})
	wf.MustAddTask(workflow.TaskSpec{ID: "t2", Work: 2e9, Outputs: []string{"b"}})
	wf.MustAddTask(workflow.TaskSpec{ID: "t3", Work: 2.2e9, Outputs: []string{"c"}})
	wf.MustAddTask(workflow.TaskSpec{ID: "t4", Work: 20e9, Inputs: []string{"a", "b", "c"}})
	col := metrics.New("test", "waves")
	tr, err := exec.Run(sys, wf, exec.Config{
		TraceSink:  trace.Retain,
		Placement:  placement.NewExplicit("bb", []string{"a", "b", "c"}),
		Adapt:      adapt.Policy{SpillHighWater: 0.3, SpillLowWater: 0.12},
		Metrics:    col,
		Background: []exec.Background{&auditor{t: t, every: 0.1, until: 25}},
	})
	if err != nil {
		t.Fatal(err)
	}
	spilled := map[[2]string]int{}
	for _, ev := range tr.Events() {
		if ev.Kind == trace.AdaptSpill {
			spilled[[2]string{ev.Name, ev.Place}]++
		}
	}
	for _, id := range []string{"a", "b", "c"} {
		if got := spilled[[2]string{id, "bb"}]; got != 1 {
			t.Errorf("%s spilled %d times, want exactly 1", id, got)
		}
	}
	if got := tr.CountKind(trace.AdaptSpill); got != 3 {
		t.Errorf("AdaptSpill count = %d, want 3", got)
	}
	want := float64(180 * units.MB)
	if got := col.Snapshot().Counter(metrics.AdaptBytesTotal,
		metrics.Key{Tier: "shared-bb", Op: metrics.OpSpill}); got != want {
		t.Errorf("adapt spill bytes = %g, want %g", got, want)
	}
	if used := sys.AllBBs()[0].Used(); used != 0 {
		t.Errorf("BB used = %v after all spills drained, want 0", used)
	}
	if err := sys.AuditCapacity(); err != nil {
		t.Errorf("final capacity audit: %v", err)
	}
}
