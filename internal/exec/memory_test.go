package exec_test

import (
	"testing"

	"bbwfsim/internal/exec"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

// memConfig is a node with 10 GiB of RAM and plenty of cores.
func memConfig() platform.Config {
	cfg := testConfig(1, 16)
	cfg.RAMPerNode = 10 * units.GiB
	return cfg
}

func TestMemoryConstraintSerializes(t *testing.T) {
	sys := newSystem(t, memConfig())
	wf := workflow.New("mem")
	// Two 6 GiB tasks cannot share a 10 GiB node despite free cores.
	wf.MustAddTask(workflow.TaskSpec{ID: "a", Work: 2e9, Memory: 6 * units.GiB})
	wf.MustAddTask(workflow.TaskSpec{ID: "b", Work: 2e9, Memory: 6 * units.GiB})
	tr, err := exec.Run(sys, wf, exec.Config{TraceSink: trace.Retain})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(tr.Makespan(), 4.0, 1e-9) {
		t.Errorf("makespan = %v, want 4.0 (memory-serialized)", tr.Makespan())
	}
	if tr.Task(wf.Task("b")).StartedAt < tr.Task(wf.Task("a")).FinishedAt {
		t.Error("b overlapped a despite the memory constraint")
	}
}

func TestMemoryFitsConcurrently(t *testing.T) {
	sys := newSystem(t, memConfig())
	wf := workflow.New("mem")
	wf.MustAddTask(workflow.TaskSpec{ID: "a", Work: 2e9, Memory: 4 * units.GiB})
	wf.MustAddTask(workflow.TaskSpec{ID: "b", Work: 2e9, Memory: 4 * units.GiB})
	tr, err := exec.Run(sys, wf, exec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(tr.Makespan(), 2.0, 1e-9) {
		t.Errorf("makespan = %v, want 2.0 (both fit)", tr.Makespan())
	}
}

func TestOversizedMemoryDemandRejected(t *testing.T) {
	sys := newSystem(t, memConfig())
	wf := workflow.New("mem")
	wf.MustAddTask(workflow.TaskSpec{ID: "huge", Work: 1e9, Memory: 11 * units.GiB})
	if _, err := exec.Run(sys, wf, exec.Config{}); err == nil {
		t.Error("task larger than node RAM accepted")
	}
}

func TestNoRAMConfiguredMeansUnconstrained(t *testing.T) {
	cfg := testConfig(1, 4)
	cfg.RAMPerNode = 0
	sys := newSystem(t, cfg)
	wf := workflow.New("mem")
	wf.MustAddTask(workflow.TaskSpec{ID: "a", Work: 1e9, Memory: 100 * units.GiB})
	wf.MustAddTask(workflow.TaskSpec{ID: "b", Work: 1e9, Memory: 100 * units.GiB})
	tr, err := exec.Run(sys, wf, exec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(tr.Makespan(), 1.0, 1e-9) {
		t.Errorf("makespan = %v, want 1.0 (RAM unconstrained)", tr.Makespan())
	}
}

func TestMemorySpreadsAcrossNodes(t *testing.T) {
	cfg := testConfig(2, 16)
	cfg.RAMPerNode = 10 * units.GiB
	sys := newSystem(t, cfg)
	wf := workflow.New("mem")
	wf.MustAddTask(workflow.TaskSpec{ID: "a", Work: 2e9, Memory: 6 * units.GiB})
	wf.MustAddTask(workflow.TaskSpec{ID: "b", Work: 2e9, Memory: 6 * units.GiB})
	tr, err := exec.Run(sys, wf, exec.Config{TraceSink: trace.Retain})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(tr.Makespan(), 2.0, 1e-9) {
		t.Errorf("makespan = %v, want 2.0 (second node absorbs b)", tr.Makespan())
	}
	if tr.Task(wf.Task("a")).Node == tr.Task(wf.Task("b")).Node {
		t.Error("both memory-heavy tasks on one node")
	}
}

func TestMemoryReleasedAfterTask(t *testing.T) {
	sys := newSystem(t, memConfig())
	wf := workflow.New("mem")
	wf.MustAddFile("link", 0)
	wf.MustAddTask(workflow.TaskSpec{ID: "a", Work: 1e9, Memory: 8 * units.GiB, Outputs: []string{"link"}})
	wf.MustAddTask(workflow.TaskSpec{ID: "b", Work: 1e9, Memory: 8 * units.GiB, Inputs: []string{"link"}})
	if _, err := exec.Run(sys, wf, exec.Config{}); err != nil {
		t.Fatalf("sequential memory-heavy chain failed: %v", err)
	}
	if got := sys.Platform().Node(0).FreeMemory(); got != 10*units.GiB {
		t.Errorf("FreeMemory = %v after run, want 10 GiB", got)
	}
}
