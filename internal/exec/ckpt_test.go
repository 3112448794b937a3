package exec_test

import (
	"strings"
	"testing"

	"bbwfsim/internal/ckpt"
	"bbwfsim/internal/core"
	"bbwfsim/internal/exec"
	"bbwfsim/internal/faults"
	"bbwfsim/internal/metrics"
	"bbwfsim/internal/placement"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

// scripted is a FaultModel that hands the controller to a test closure,
// which schedules its own failures at exact virtual times.
type scripted struct {
	script func(ctrl exec.FaultController)
}

func (s *scripted) Attach(ctrl exec.FaultController) { s.script(ctrl) }

func (s *scripted) RejectBBAlloc(*workflow.Task, *workflow.File) bool { return false }

// firstEvent returns the first event of the given kind.
func firstEvent(tr *trace.Trace, kind trace.EventKind) (trace.Event, bool) {
	for _, ev := range tr.Events() {
		if ev.Kind == kind {
			return ev, true
		}
	}
	return trace.Event{}, false
}

// TestNilBackgroundRejected: a nil entry in Background would panic at
// Start; it must be reported as a config error naming the index.
func TestNilBackgroundRejected(t *testing.T) {
	sys := newSystem(t, testConfig(1, 4))
	wf := workflow.New("one")
	wf.MustAddTask(workflow.TaskSpec{ID: "t", Work: 1e9, Cores: 1})
	_, err := exec.Run(sys, wf, exec.Config{Background: []exec.Background{nil}})
	if err == nil {
		t.Fatal("Run accepted a nil Background entry")
	}
	if !strings.Contains(err.Error(), "Background") || !strings.Contains(err.Error(), "0") {
		t.Errorf("error %q does not name the offending entry", err)
	}
}

// TestInvalidCheckpointPolicyRejected: checkpoint policies are validated
// before the simulation starts.
func TestInvalidCheckpointPolicyRejected(t *testing.T) {
	cases := []struct {
		name    string
		p       ckpt.Policy
		wantErr string
	}{
		{"negative interval", ckpt.Policy{Interval: -5}, "interval must be positive"},
		{"target without interval", ckpt.Policy{Target: ckpt.TargetBB}, "without a positive interval"},
		{"unknown target", ckpt.Policy{Interval: 60, Target: "tape"}, "unknown checkpoint target"},
		{"negative drain delay", ckpt.Policy{Interval: 60, DrainDelay: -1}, "negative drain delay"},
		{"drain to pfs", ckpt.Policy{Interval: 60, Target: ckpt.TargetPFS, Drain: true}, "drain requires a burst-buffer target"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := newSystem(t, testConfig(1, 4))
			wf := workflow.New("one")
			wf.MustAddTask(workflow.TaskSpec{ID: "t", Work: 1e9, Cores: 1})
			_, err := exec.Run(sys, wf, exec.Config{Checkpoint: tc.p})
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Run = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestCheckpointLifecycleFaultFree: a 10 s task with Interval 3 commits
// snapshots at progress 3, 6, and 9 (the last segment is shorter than the
// interval, so no snapshot follows it), pays their write time, and retires
// every snapshot replica at completion.
func TestCheckpointLifecycleFaultFree(t *testing.T) {
	sys := newSystem(t, testConfig(1, 4))
	wf := workflow.New("one")
	wf.MustAddTask(workflow.TaskSpec{ID: "t", Work: 10e9, Cores: 1})
	col := metrics.New("test", "one")
	tr, err := exec.Run(sys, wf, exec.Config{
		Checkpoint: ckpt.Policy{Interval: 3, Target: ckpt.TargetBB, MinSize: 80 * units.MB},
		TraceSink:  core.NewMetricsFold(col, wf, sys),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.CountKind(trace.CkptBegin); got != 3 {
		t.Errorf("CkptBegin count = %d, want 3", got)
	}
	if got := tr.CountKind(trace.CkptCommit); got != 3 {
		t.Errorf("CkptCommit count = %d, want 3", got)
	}
	// 10 s compute + 3 × (80 MB at 800 MB/s) = 10.3 s.
	if !approx(tr.Makespan(), 10.3, 1e-9) {
		t.Errorf("makespan = %v, want 10.3", tr.Makespan())
	}
	// Completion retires the whole snapshot chain.
	if used := sys.AllBBs()[0].Used(); used != 0 {
		t.Errorf("BB used = %v after completion, want 0", used)
	}
	snap := col.Snapshot()
	wantBytes := float64(3 * 80 * units.MB)
	if got := snap.Counter(metrics.CkptBytesTotal, metrics.Key{Tier: "shared-bb", Op: metrics.OpWrite}); got != wantBytes {
		t.Errorf("ckpt bytes = %g, want %g", got, wantBytes)
	}
	if got := snap.Counter(metrics.CkptOverheadSecondsTotal, metrics.Key{Tier: "shared-bb", Op: metrics.OpWrite}); !approx(got, 0.3, 1e-9) {
		t.Errorf("ckpt overhead = %g, want 0.3", got)
	}
	// Fault-free: executed compute equals the task's compute duration.
	if got := snap.Counter(metrics.ComputeExecutedSecondsTotal, metrics.Key{Task: "t"}); !approx(got, 10, 1e-9) {
		t.Errorf("executed compute = %g, want 10", got)
	}
}

// TestRestartFromCheckpointBeatsLineage: the same scripted crash, with and
// without a checkpoint policy. The checkpointed run restarts from the
// newest snapshot, re-executes strictly less compute, and finishes
// strictly earlier.
func TestRestartFromCheckpointBeatsLineage(t *testing.T) {
	run := func(pol ckpt.Policy) (*trace.Trace, *metrics.Snapshot) {
		t.Helper()
		sys := newSystem(t, testConfig(1, 4))
		wf := workflow.New("one")
		wf.MustAddTask(workflow.TaskSpec{ID: "t", Work: 10e9, Cores: 1})
		col := metrics.New("test", "one")
		fm := &scripted{script: func(ctrl exec.FaultController) {
			ctrl.System().Platform().Engine().After(8, func() {
				if running := ctrl.Running(); len(running) > 0 {
					ctrl.KillTask(running[0], "scripted crash")
				}
			})
		}}
		tr, err := exec.Run(sys, wf, exec.Config{
			Checkpoint: pol,
			Faults:     fm,
			Retry:      exec.RetryPolicy{MaxRetries: 1},
			TraceSink:  trace.Tee(trace.Retain, core.NewMetricsFold(col, wf, sys)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr, col.Snapshot()
	}

	lineage, lsnap := run(ckpt.Policy{})
	ck, csnap := run(ckpt.Policy{Interval: 3, Target: ckpt.TargetBB, MinSize: 80 * units.MB})

	if got := ck.CountKind(trace.RestartFrom); got != 1 {
		t.Fatalf("RestartFrom count = %d, want 1", got)
	}
	if ev, _ := firstEvent(ck, trace.RestartFrom); ev.X != 6 {
		t.Errorf("RestartFrom progress = %g, want 6 (commits at 3 and 6 before the crash at t=8)", ev.X)
	}
	if ck.Makespan() >= lineage.Makespan() {
		t.Errorf("checkpointed makespan %v not less than lineage %v", ck.Makespan(), lineage.Makespan())
	}
	key := metrics.Key{Task: "t"}
	le := lsnap.Counter(metrics.ComputeExecutedSecondsTotal, key)
	ce := csnap.Counter(metrics.ComputeExecutedSecondsTotal, key)
	if ce >= le {
		t.Errorf("checkpointed executed compute %g not less than lineage %g", ce, le)
	}
	if got := csnap.Counter(metrics.CkptRecoveredSecondsTotal, metrics.Key{Tier: "shared-bb"}); !approx(got, 6, 1e-9) {
		t.Errorf("recovered seconds = %g, want 6", got)
	}
}

// TestNodeFailureLosesBBCheckpoints: on a private-mode shared BB a
// checkpoint dies with its writer node (CkptLost); with a PFS target the
// same failure leaves the snapshot durable and the retry restarts from it.
func TestNodeFailureLosesBBCheckpoints(t *testing.T) {
	run := func(target ckpt.Target) *trace.Trace {
		t.Helper()
		sys := newSystem(t, testConfig(2, 4))
		wf := workflow.New("one")
		wf.MustAddTask(workflow.TaskSpec{ID: "t", Work: 10e9, Cores: 1})
		fm := &scripted{script: func(ctrl exec.FaultController) {
			ctrl.System().Platform().Engine().After(8, func() {
				if n := busyNode(ctrl); n != nil {
					ctrl.FailNode(n, "scripted failure")
				}
			})
		}}
		tr, err := exec.Run(sys, wf, exec.Config{
			Checkpoint: ckpt.Policy{Interval: 3, Target: target, MinSize: 80 * units.MB},
			Faults:     fm,
			Retry:      exec.RetryPolicy{MaxRetries: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}

	bb := run(ckpt.TargetBB)
	if got := bb.CountKind(trace.CkptLost); got == 0 {
		t.Error("BB-target run recorded no CkptLost after the writer node failed")
	}
	if got := bb.CountKind(trace.RestartFrom); got != 0 {
		t.Errorf("BB-target run restarted from a dead snapshot (%d RestartFrom)", got)
	}

	pfs := run(ckpt.TargetPFS)
	if got := pfs.CountKind(trace.CkptLost); got != 0 {
		t.Errorf("PFS-target run lost %d snapshots to a node failure", got)
	}
	if got := pfs.CountKind(trace.RestartFrom); got != 1 {
		t.Errorf("PFS-target run RestartFrom count = %d, want 1", got)
	}
	if pfs.Makespan() >= bb.Makespan() {
		t.Errorf("durable-checkpoint makespan %v not less than scratch-checkpoint %v",
			pfs.Makespan(), bb.Makespan())
	}
}

// TestCrashBetweenCommitAndDrain: a node failure after a snapshot commits
// but before its drain completes loses the un-drained snapshot; recovery
// falls back to the previous, already-drained one.
func TestCrashBetweenCommitAndDrain(t *testing.T) {
	sys := newSystem(t, testConfig(2, 4))
	wf := workflow.New("one")
	wf.MustAddTask(workflow.TaskSpec{ID: "t", Work: 10e9, Cores: 1})
	fm := &scripted{script: func(ctrl exec.FaultController) {
		// Commits land at p=2 (t≈2.06) and p=4 (t≈4.13); drains run 0.5 s
		// after commit and take 0.5 s (50 MB at the PFS's 100 MB/s). At
		// t=4.5 the first snapshot is drained, the second is not.
		ctrl.System().Platform().Engine().After(4.5, func() {
			if n := busyNode(ctrl); n != nil {
				ctrl.FailNode(n, "scripted failure")
			}
		})
	}}
	tr, err := exec.Run(sys, wf, exec.Config{
		Checkpoint: ckpt.Policy{
			Interval: 2, Target: ckpt.TargetBB, Drain: true, DrainDelay: 0.5,
			MinSize: 50 * units.MB,
		},
		Faults:    fm,
		Retry:     exec.RetryPolicy{MaxRetries: 1},
		TraceSink: trace.Retain,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.CountKind(trace.CkptDrain); got == 0 {
		t.Fatal("no drain completed before the failure")
	}
	if got := tr.CountKind(trace.CkptLost); got == 0 {
		t.Error("the un-drained snapshot was not recorded lost")
	}
	ev, ok := firstEvent(tr, trace.RestartFrom)
	if !ok {
		t.Fatal("no RestartFrom: recovery did not fall back to the drained snapshot")
	}
	if ev.X != 2 {
		t.Errorf("RestartFrom progress = %g, want fallback to the drained snapshot at p=2", ev.X)
	}
}

// TestRetryExhaustionDuringDegradation: a crash process outpacing the
// retry budget inside an open BB-degradation window must fail the run with
// the budget error — not hang, panic, or leak reserved capacity.
func TestRetryExhaustionDuringDegradation(t *testing.T) {
	sys := newSystem(t, testConfig(2, 4))
	wf := workflow.New("one")
	wf.MustAddTask(workflow.TaskSpec{ID: "t", Work: 30e9, Cores: 1})
	inj, err := faults.New(faults.Config{
		Seed:      7,
		TaskCrash: &faults.CrashProcess{Arrival: faults.Exp(2)},
		BBDegrade: &faults.DegradeProcess{Arrival: faults.Exp(0.1), Duration: 1000, Factor: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = exec.Run(sys, wf, exec.Config{
		Checkpoint: ckpt.Policy{Interval: 3, Target: ckpt.TargetBB, MinSize: 80 * units.MB},
		Faults:     inj,
		Retry:      exec.RetryPolicy{MaxRetries: 2},
	})
	if err == nil {
		t.Fatal("run survived a crash process faster than its retry budget")
	}
	if !strings.Contains(err.Error(), "retry budget") {
		t.Errorf("error = %q, want retry-budget exhaustion", err)
	}
}

// TestNodeFailureDuringStageOut: a node failure mid-stage-out retries the
// stage-out on a surviving node and still lands every file on the PFS.
func TestNodeFailureDuringStageOut(t *testing.T) {
	sys := newSystem(t, testConfig(2, 4))
	wf := workflow.New("so")
	wf.MustAddFile("result", 200*units.MB)
	wf.MustAddTask(workflow.TaskSpec{ID: "produce", Work: 1e9, Outputs: []string{"result"}})
	wf.MustAddTask(workflow.TaskSpec{
		ID: "stage_out", Kind: workflow.KindStageOut, Inputs: []string{"result"},
	})
	pol := placement.NewExplicit("res", []string{"result"})
	fm := &scripted{script: func(ctrl exec.FaultController) {
		// produce ends ≈1.25 s; the stage-out copy (200 MB at the PFS's
		// 100 MB/s) runs ≈1.25–3.25 s. Fail the stage-out's node mid-copy.
		ctrl.System().Platform().Engine().After(2, func() {
			if n := busyNode(ctrl); n != nil {
				ctrl.FailNode(n, "scripted failure")
			}
		})
	}}
	tr, err := exec.Run(sys, wf, exec.Config{TraceSink: trace.Retain, Placement: pol, Faults: fm,
		Retry: exec.RetryPolicy{MaxRetries: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !sys.Registry().Has(wf.File("result"), sys.PFS()) {
		t.Error("result not on PFS after recovered stage-out")
	}
	if got := tr.CountKind(trace.TaskFail); got == 0 {
		t.Error("scripted node failure killed nothing")
	}
	if rec := tr.Task(wf.Task("stage_out")); rec.Retries == 0 {
		t.Error("stage-out completed without the expected retry")
	}
}

// TestCheckpointSkippedWhenNoTierFits: when neither the BB nor the PFS can
// hold a snapshot, checkpointing turns itself off for the attempt and the
// task still completes (no commits, no failure).
func TestCheckpointSkippedWhenNoTierFits(t *testing.T) {
	cfg := testConfig(1, 4)
	cfg.BB.Capacity = 10 * units.MB
	cfg.PFS.Capacity = 10 * units.MB
	sys := newSystem(t, cfg)
	wf := workflow.New("one")
	wf.MustAddTask(workflow.TaskSpec{ID: "t", Work: 10e9, Cores: 1})
	tr, err := exec.Run(sys, wf, exec.Config{
		Checkpoint: ckpt.Policy{Interval: 3, Target: ckpt.TargetBB, MinSize: 80 * units.MB},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.CountKind(trace.CkptCommit); got != 0 {
		t.Errorf("CkptCommit count = %d on a full platform, want 0", got)
	}
	if !approx(tr.Makespan(), 10, 1e-9) {
		t.Errorf("makespan = %v, want 10 (no checkpoint overhead)", tr.Makespan())
	}
}

// TestTasksWithoutMemoryNotCheckpointed: a policy sized from the memory
// footprint skips tasks that declare none.
func TestTasksWithoutMemoryNotCheckpointed(t *testing.T) {
	sys := newSystem(t, testConfig(1, 4))
	wf := workflow.New("one")
	wf.MustAddTask(workflow.TaskSpec{ID: "t", Work: 10e9, Cores: 1})
	tr, err := exec.Run(sys, wf, exec.Config{
		Checkpoint: ckpt.Policy{Interval: 3, Target: ckpt.TargetBB, SizeFraction: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.CountKind(trace.CkptBegin); got != 0 {
		t.Errorf("CkptBegin count = %d for a task with no memory footprint, want 0", got)
	}
	if !approx(tr.Makespan(), 10, 1e-9) {
		t.Errorf("makespan = %v, want 10", tr.Makespan())
	}
}

// busyNode returns the first up node with cores in use: in these
// single-task scripts, the node the running task occupies.
func busyNode(ctrl exec.FaultController) *platform.Node {
	for _, n := range ctrl.UpNodes() {
		if n.FreeCores() < n.Cores() {
			return n
		}
	}
	return nil
}
