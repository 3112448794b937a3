package exec_test

import (
	"testing"

	"bbwfsim/internal/exec"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

func TestRoundRobinSpreadsTasks(t *testing.T) {
	sys := newSystem(t, testConfig(4, 4))
	wf := workflow.New("spread")
	for i := 0; i < 4; i++ {
		wf.MustAddTask(workflow.TaskSpec{ID: fileID("t", i), Work: 1e9, Cores: 1})
	}
	tr, err := exec.Run(sys, wf, exec.Config{TraceSink: trace.Retain, NodePolicy: exec.NodeRoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[string]bool{}
	for _, r := range tr.Records() {
		nodes[r.Node] = true
	}
	if len(nodes) != 4 {
		t.Errorf("round robin used %d nodes, want 4", len(nodes))
	}
}

func TestFirstFitPacksTasks(t *testing.T) {
	sys := newSystem(t, testConfig(4, 4))
	wf := workflow.New("pack")
	for i := 0; i < 4; i++ {
		wf.MustAddTask(workflow.TaskSpec{ID: fileID("t", i), Work: 1e9, Cores: 1})
	}
	tr, err := exec.Run(sys, wf, exec.Config{TraceSink: trace.Retain}) // first fit
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[string]bool{}
	for _, r := range tr.Records() {
		nodes[r.Node] = true
	}
	if len(nodes) != 1 {
		t.Errorf("first fit used %d nodes, want 1 (all fit on node 0)", len(nodes))
	}
}

func TestLeastLoadedBalances(t *testing.T) {
	sys := newSystem(t, testConfig(2, 4))
	wf := workflow.New("balance")
	// Two 3-core tasks: least-loaded must put them on different nodes.
	wf.MustAddTask(workflow.TaskSpec{ID: "a", Work: 1e9, Cores: 3})
	wf.MustAddTask(workflow.TaskSpec{ID: "b", Work: 1e9, Cores: 3})
	tr, err := exec.Run(sys, wf, exec.Config{TraceSink: trace.Retain, NodePolicy: exec.NodeLeastLoaded})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Task(wf.Task("a")).Node == tr.Task(wf.Task("b")).Node {
		t.Error("least-loaded packed both 3-core tasks onto one node")
	}
}

func TestLargestWorkFirstOrder(t *testing.T) {
	sys := newSystem(t, testConfig(1, 1)) // one core: strict serialization
	wf := workflow.New("order")
	wf.MustAddTask(workflow.TaskSpec{ID: "small", Work: 1e9})
	wf.MustAddTask(workflow.TaskSpec{ID: "big", Work: 9e9})
	tr, err := exec.Run(sys, wf, exec.Config{TraceSink: trace.Retain, OrderPolicy: exec.OrderLargestWork})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Task(wf.Task("big")).StartedAt > tr.Task(wf.Task("small")).StartedAt {
		t.Error("largest-work-first ran the small task first")
	}
}

func TestCriticalPathOrderShortensMakespan(t *testing.T) {
	// Two independent chains on 1 core per task, 2 cores total:
	//  chain A: a1(8) → a2(8)   (critical)
	//  fillers: f1(4), f2(4), f3(4), f4(4)
	// FIFO (fillers first by index) delays the critical chain; critical-
	// path order starts a1 immediately.
	build := func() *workflow.Workflow {
		wf := workflow.New("cp")
		wf.MustAddFile("link", 0)
		wf.MustAddTask(workflow.TaskSpec{ID: "f1", Work: 4e9})
		wf.MustAddTask(workflow.TaskSpec{ID: "f2", Work: 4e9})
		wf.MustAddTask(workflow.TaskSpec{ID: "f3", Work: 4e9})
		wf.MustAddTask(workflow.TaskSpec{ID: "f4", Work: 4e9})
		wf.MustAddTask(workflow.TaskSpec{ID: "a1", Work: 8e9, Outputs: []string{"link"}})
		wf.MustAddTask(workflow.TaskSpec{ID: "a2", Work: 8e9, Inputs: []string{"link"}})
		return wf
	}
	run := func(order exec.OrderPolicy) float64 {
		sys := newSystem(t, testConfig(1, 2))
		tr, err := exec.Run(sys, build(), exec.Config{OrderPolicy: order})
		if err != nil {
			t.Fatal(err)
		}
		return tr.Makespan()
	}
	fifo := run(exec.OrderFIFO)
	cp := run(exec.OrderCriticalPath)
	if cp >= fifo {
		t.Errorf("critical-path order (%.2f) should beat FIFO (%.2f)", cp, fifo)
	}
	// Optimal: a1 at t=0, a2 at t=8, fillers fill the other core → 16.
	if !approx(cp, 16, 1e-9) {
		t.Errorf("critical-path makespan = %v, want 16", cp)
	}
}

func TestPoliciesDeterministic(t *testing.T) {
	for _, np := range []exec.NodePolicy{exec.NodeFirstFit, exec.NodeLeastLoaded, exec.NodeRoundRobin} {
		for _, op := range []exec.OrderPolicy{exec.OrderFIFO, exec.OrderLargestWork, exec.OrderCriticalPath} {
			run := func() float64 {
				sys := newSystem(t, testConfig(3, 4))
				wf := randomPipelines(12345)
				tr, err := exec.Run(sys, wf, exec.Config{NodePolicy: np, OrderPolicy: op})
				if err != nil {
					t.Fatal(err)
				}
				return tr.Makespan()
			}
			if a, b := run(), run(); a != b {
				t.Errorf("policy (%v,%v) not deterministic: %v vs %v", np, op, a, b)
			}
		}
	}
}

func TestRoundRobinFallsBackWhenFull(t *testing.T) {
	sys := newSystem(t, testConfig(2, 2))
	wf := workflow.New("fallback")
	// Task a fills node A (2 cores). Round robin would then prefer node B
	// for b, then wrap to A for c — but A is full, so c must go to B.
	wf.MustAddTask(workflow.TaskSpec{ID: "a", Work: units.Flops(10e9), Cores: 2})
	wf.MustAddTask(workflow.TaskSpec{ID: "b", Work: 1e9, Cores: 1})
	wf.MustAddTask(workflow.TaskSpec{ID: "c", Work: 1e9, Cores: 1})
	tr, err := exec.Run(sys, wf, exec.Config{TraceSink: trace.Retain, NodePolicy: exec.NodeRoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Task(wf.Task("c")).Node == tr.Task(wf.Task("a")).Node {
		t.Error("task c landed on the full node")
	}
	if tr.Task(wf.Task("c")).WaitTime() > 0 {
		t.Error("task c waited despite free cores on node B")
	}
}
