package exec_test

import (
	"testing"

	"bbwfsim/internal/exec"
	"bbwfsim/internal/placement"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

// chainWF builds t1 → t2 → t3 where each task writes a 100 MB output and
// reads its predecessor's.
func chainWF() *workflow.Workflow {
	wf := workflow.New("chain")
	wf.MustAddFile("o1", 100*units.MB)
	wf.MustAddFile("o2", 100*units.MB)
	wf.MustAddFile("o3", 100*units.MB)
	wf.MustAddTask(workflow.TaskSpec{ID: "t1", Work: 1e9, Outputs: []string{"o1"}})
	wf.MustAddTask(workflow.TaskSpec{ID: "t2", Work: 1e9, Inputs: []string{"o1"}, Outputs: []string{"o2"}})
	wf.MustAddTask(workflow.TaskSpec{ID: "t3", Work: 1e9, Inputs: []string{"o2"}, Outputs: []string{"o3"}})
	return wf
}

func TestEvictionFreesBBSpace(t *testing.T) {
	cfg := testConfig(1, 4)
	cfg.BB.Capacity = 200 * units.MB // fits two files, not three
	pol := placement.NewExplicit("all", []string{"o1", "o2", "o3"})

	// Without eviction the third write overflows the BB.
	sysNoEvict := newSystem(t, cfg)
	if _, err := exec.Run(sysNoEvict, chainWF(), exec.Config{Placement: pol}); err == nil {
		t.Fatal("run without eviction should overflow the 200MB BB")
	}

	// With eviction, o1 is freed once t2 (its last consumer) finishes, so
	// o3 fits.
	sysEvict := newSystem(t, cfg)
	wf := chainWF()
	tr, err := exec.Run(sysEvict, wf, exec.Config{Placement: pol, EvictAfterLastRead: true})
	if err != nil {
		t.Fatalf("run with eviction failed: %v", err)
	}
	if tr.Makespan() <= 0 {
		t.Fatal("no progress")
	}
	bb := sysEvict.BBFor(sysEvict.Platform().Node(0))
	// o1 and o2 evicted (consumers done); o3 is a terminal output and
	// stays.
	if bb.Used() != 100*units.MB {
		t.Errorf("BB used = %v at end, want 100 MB (terminal output only)", bb.Used())
	}
	if sysEvict.Registry().Has(wf.File("o1"), bb) {
		t.Error("o1 still registered on BB after its last read")
	}
	if !sysEvict.Registry().Has(wf.File("o3"), bb) {
		t.Error("terminal output o3 was evicted")
	}
}

func TestEvictionKeepsPFSReplicas(t *testing.T) {
	// A staged input keeps its PFS replica after the BB copy is evicted.
	cfg := testConfig(1, 4)
	sys := newSystem(t, cfg)
	wf := workflow.New("staged")
	wf.MustAddFile("in", 100*units.MB)
	wf.MustAddTask(workflow.TaskSpec{ID: "stage", Kind: workflow.KindStageIn, Outputs: []string{"in"}})
	wf.MustAddTask(workflow.TaskSpec{ID: "use", Work: 0, Inputs: []string{"in"}})
	pol := placement.NewExplicit("in", []string{"in"})
	if _, err := exec.Run(sys, wf, exec.Config{Placement: pol, EvictAfterLastRead: true}); err != nil {
		t.Fatal(err)
	}
	bb := sys.BBFor(sys.Platform().Node(0))
	if sys.Registry().Has(wf.File("in"), bb) {
		t.Error("BB replica not evicted after last read")
	}
	if !sys.Registry().Has(wf.File("in"), sys.PFS()) {
		t.Error("PFS replica lost")
	}
	if bb.Used() != 0 {
		t.Errorf("BB used = %v, want 0", bb.Used())
	}
}

func TestPrivateVisibilityFallsBackToPFS(t *testing.T) {
	// Two single-core nodes, round-robin scheduling: the producer runs on
	// node 0 and writes its 800 MB output to the private-mode shared BB;
	// the consumer is then placed on node 1. With visibility enforcement
	// the BB replica (created by node 0) is invisible there, so the read
	// falls back to the PFS (100 MB/s → 8 s instead of 1 s).
	wf := workflow.New("vis")
	wf.MustAddFile("f", 800*units.MB)
	wf.MustAddTask(workflow.TaskSpec{ID: "produce", Work: 0, Outputs: []string{"f"}})
	wf.MustAddTask(workflow.TaskSpec{ID: "consume", Work: 0, Inputs: []string{"f"}})
	pol := placement.NewExplicit("f", []string{"f"})

	run := func(enforce bool) float64 {
		sys := newSystem(t, testConfig(2, 1))
		tr, err := exec.Run(sys, wf, exec.Config{
			TraceSink:                trace.Retain,
			Placement:                pol,
			NodePolicy:               exec.NodeRoundRobin,
			EnforcePrivateVisibility: enforce,
		})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Task(wf.Task("produce")).Node == tr.Task(wf.Task("consume")).Node {
			t.Fatal("test setup broken: producer and consumer on the same node")
		}
		return tr.Makespan()
	}
	lax := run(false)
	strict := run(true)
	// Write 1 s (800 MB at 800 MB/s) + 1 s BB read without enforcement.
	if !approx(lax, 2.0, 1e-9) {
		t.Errorf("without enforcement makespan = %v, want 2.0", lax)
	}
	// Relocation: BB→PFS copy (8 s, PFS disk bound) + PFS read (8 s).
	if !approx(strict, 17.0, 1e-9) {
		t.Errorf("with enforcement makespan = %v, want 17.0 (relocate + PFS read)", strict)
	}
}

func TestPrivateVisibilitySameNodeStillSeesBB(t *testing.T) {
	// On a single node the creator always matches: enforcement changes
	// nothing.
	wf := workflow.New("vis1")
	wf.MustAddFile("f", 800*units.MB)
	wf.MustAddTask(workflow.TaskSpec{ID: "produce", Work: 0, Outputs: []string{"f"}})
	wf.MustAddTask(workflow.TaskSpec{ID: "consume", Work: 0, Inputs: []string{"f"}})
	pol := placement.NewExplicit("f", []string{"f"})
	sys := newSystem(t, testConfig(1, 4))
	tr, err := exec.Run(sys, wf, exec.Config{Placement: pol, EnforcePrivateVisibility: true})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(tr.Makespan(), 2.0, 1e-9) {
		t.Errorf("same-node enforcement makespan = %v, want 2.0", tr.Makespan())
	}
}
