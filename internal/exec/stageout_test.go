package exec_test

import (
	"testing"

	"bbwfsim/internal/exec"
	"bbwfsim/internal/placement"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

// stageOutWF: produce writes 100 MB to the BB, stage_out drains it to the
// PFS.
func stageOutWF() *workflow.Workflow {
	wf := workflow.New("so")
	wf.MustAddFile("result", 100*units.MB)
	wf.MustAddTask(workflow.TaskSpec{ID: "produce", Work: 1e9, Outputs: []string{"result"}})
	wf.MustAddTask(workflow.TaskSpec{
		ID: "stage_out", Kind: workflow.KindStageOut, Inputs: []string{"result"},
	})
	return wf
}

func TestStageOutDrainsToPFS(t *testing.T) {
	sys := newSystem(t, testConfig(1, 4))
	wf := stageOutWF()
	pol := placement.NewExplicit("res", []string{"result"})
	tr, err := exec.Run(sys, wf, exec.Config{TraceSink: trace.Retain, Placement: pol})
	if err != nil {
		t.Fatal(err)
	}
	// produce: 1 s compute + 100MB→BB at 800MB/s (0.125 s);
	// stage-out copy BB→PFS: PFS disk bound, 1 s.
	if !approx(tr.Makespan(), 2.125, 1e-9) {
		t.Errorf("makespan = %v, want 2.125", tr.Makespan())
	}
	f := wf.File("result")
	if !sys.Registry().Has(f, sys.PFS()) {
		t.Error("result not on PFS after stage-out")
	}
	if !sys.Registry().Has(f, sys.BBFor(sys.Platform().Node(0))) {
		t.Error("BB replica should remain (stage-out copies, not moves)")
	}
	rec := tr.Task(wf.Task("stage_out"))
	if rec.BytesWritten != 100*units.MB {
		t.Errorf("stage-out bytes = %v, want 100 MB", rec.BytesWritten)
	}
}

func TestStageOutSkipsPFSResidentFiles(t *testing.T) {
	sys := newSystem(t, testConfig(1, 4))
	wf := stageOutWF()
	// No placement: produce writes straight to the PFS; stage-out is free.
	tr, err := exec.Run(sys, wf, exec.Config{TraceSink: trace.Retain})
	if err != nil {
		t.Fatal(err)
	}
	rec := tr.Task(wf.Task("stage_out"))
	if got := rec.ExecTime(); got != 0 {
		t.Errorf("stage-out of a PFS-resident file took %v, want 0", got)
	}
}

func TestStageOutSequential(t *testing.T) {
	sys := newSystem(t, testConfig(1, 4))
	wf := workflow.New("so2")
	wf.MustAddFile("r1", 100*units.MB)
	wf.MustAddFile("r2", 100*units.MB)
	wf.MustAddTask(workflow.TaskSpec{ID: "p", Work: 0, Outputs: []string{"r1", "r2"}})
	wf.MustAddTask(workflow.TaskSpec{
		ID: "so", Kind: workflow.KindStageOut, Inputs: []string{"r1", "r2"},
	})
	pol := placement.NewExplicit("rs", []string{"r1", "r2"})
	tr, err := exec.Run(sys, wf, exec.Config{Placement: pol})
	if err != nil {
		t.Fatal(err)
	}
	// p: two 100 MB writes, 1 core → sequential at 800 MB/s = 0.25 s.
	// stage-out: two sequential 1 s copies (PFS disk bound) = 2 s.
	if !approx(tr.Makespan(), 2.25, 1e-9) {
		t.Errorf("makespan = %v, want 2.25 (sequential stage-out)", tr.Makespan())
	}
}

func TestStageOutWithEviction(t *testing.T) {
	// Eviction after stage-out frees the BB replica too: stage_out is the
	// last consumer.
	sys := newSystem(t, testConfig(1, 4))
	wf := stageOutWF()
	pol := placement.NewExplicit("res", []string{"result"})
	if _, err := exec.Run(sys, wf, exec.Config{Placement: pol, EvictAfterLastRead: true}); err != nil {
		t.Fatal(err)
	}
	f := wf.File("result")
	bb := sys.BBFor(sys.Platform().Node(0))
	if sys.Registry().Has(f, bb) {
		t.Error("BB replica not evicted after stage-out")
	}
	if !sys.Registry().Has(f, sys.PFS()) {
		t.Error("PFS replica missing after stage-out + eviction")
	}
}
