package exec_test

import (
	"bbwfsim/internal/exec"
	"math"
	"testing"
	"testing/quick"

	"bbwfsim/internal/placement"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/sim"
	"bbwfsim/internal/storage"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

func approx(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))
}

// testConfig is a platform with round numbers: 1 GFlop/s cores, 100 MB/s
// PFS, 800/950 MB/s shared BB, no latencies, no stream caps.
func testConfig(nodes, cores int) platform.Config {
	return platform.Config{
		Name:         "test",
		Nodes:        nodes,
		CoresPerNode: cores,
		CoreSpeed:    1 * units.GFlopPerSec,
		RAMPerNode:   64 * units.GiB,
		NodeLinkBW:   10 * units.GBps,
		PFS:          platform.StorageConfig{NetworkBW: 1 * units.GBps, DiskBW: 100 * units.MBps},
		BB:           platform.StorageConfig{NetworkBW: 800 * units.MBps, DiskBW: 950 * units.MBps},
		BBKind:       platform.BBShared,
		BBMode:       platform.BBPrivate,
	}
}

func newSystem(t *testing.T, cfg platform.Config) *storage.System {
	t.Helper()
	e := sim.NewEngine()
	p, err := platform.New(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return storage.NewSystem(p, nil)
}

func TestSingleComputeTask(t *testing.T) {
	sys := newSystem(t, testConfig(1, 4))
	wf := workflow.New("one")
	wf.MustAddTask(workflow.TaskSpec{ID: "t", Work: 4e9, Cores: 1})
	tr, err := exec.Run(sys, wf, exec.Config{TraceSink: trace.Retain})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(tr.Makespan(), 4.0, 1e-9) {
		t.Errorf("makespan = %v, want 4.0 (4 GFlop at 1 GFlop/s)", tr.Makespan())
	}
	rec := tr.Task(wf.Task("t"))
	if rec == nil || rec.Cores != 1 || rec.Node == "" {
		t.Fatalf("bad record: %+v", rec)
	}
	if !approx(rec.ComputeTime(), 4.0, 1e-9) || rec.IOTime() != 0 {
		t.Errorf("phases wrong: compute=%v io=%v", rec.ComputeTime(), rec.IOTime())
	}
}

func TestMultiCoreSpeedup(t *testing.T) {
	sys := newSystem(t, testConfig(1, 4))
	wf := workflow.New("one")
	wf.MustAddTask(workflow.TaskSpec{ID: "t", Work: 4e9, Cores: 4})
	tr, err := exec.Run(sys, wf, exec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(tr.Makespan(), 1.0, 1e-9) {
		t.Errorf("makespan = %v, want 1.0 (perfect speedup on 4 cores)", tr.Makespan())
	}
}

func TestCoresOverrideAndClamp(t *testing.T) {
	sys := newSystem(t, testConfig(1, 4))
	wf := workflow.New("one")
	wf.MustAddTask(workflow.TaskSpec{ID: "t", Work: 4e9, Cores: 1})
	// Override to 8, clamped to the node's 4 cores.
	tr, err := exec.Run(sys, wf, exec.Config{TraceSink: trace.Retain, CoresPerTask: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(tr.Makespan(), 1.0, 1e-9) {
		t.Errorf("makespan = %v, want 1.0", tr.Makespan())
	}
	if tr.Task(wf.Task("t")).Cores != 4 {
		t.Errorf("cores = %d, want clamped 4", tr.Task(wf.Task("t")).Cores)
	}
}

func TestPipelineWithIO(t *testing.T) {
	sys := newSystem(t, testConfig(1, 4))
	wf := workflow.New("chain")
	wf.MustAddFile("in", 100*units.MB)
	wf.MustAddFile("mid", 100*units.MB)
	wf.MustAddTask(workflow.TaskSpec{ID: "t1", Work: 4e9, Cores: 1, Inputs: []string{"in"}, Outputs: []string{"mid"}})
	wf.MustAddTask(workflow.TaskSpec{ID: "t2", Work: 1e9, Cores: 1, Inputs: []string{"mid"}})
	tr, err := exec.Run(sys, wf, exec.Config{TraceSink: trace.Retain})
	if err != nil {
		t.Fatal(err)
	}
	// t1: read 100MB at PFS 100MB/s (1s) + compute 4s + write 1s = 6s.
	// t2: read 1s + compute 1s = 2s. Total 8s.
	if !approx(tr.Makespan(), 8.0, 1e-9) {
		t.Errorf("makespan = %v, want 8.0", tr.Makespan())
	}
	r1 := tr.Task(wf.Task("t1"))
	if !approx(r1.IOTime(), 2.0, 1e-9) {
		t.Errorf("t1 IO time = %v, want 2.0", r1.IOTime())
	}
	if r1.BytesRead != 100*units.MB || r1.BytesWritten != 100*units.MB {
		t.Errorf("t1 bytes = %v/%v", r1.BytesRead, r1.BytesWritten)
	}
	// Dependency respected.
	if tr.Task(wf.Task("t2")).StartedAt < r1.FinishedAt {
		t.Error("t2 started before t1 finished")
	}
}

func TestDiamondParallelism(t *testing.T) {
	sys := newSystem(t, testConfig(1, 4))
	wf := workflow.New("diamond")
	wf.MustAddFile("ab", 0)
	wf.MustAddFile("ac", 0)
	wf.MustAddFile("bd", 0)
	wf.MustAddFile("cd", 0)
	wf.MustAddTask(workflow.TaskSpec{ID: "a", Work: 1e9, Outputs: []string{"ab", "ac"}})
	wf.MustAddTask(workflow.TaskSpec{ID: "b", Work: 3e9, Inputs: []string{"ab"}, Outputs: []string{"bd"}})
	wf.MustAddTask(workflow.TaskSpec{ID: "c", Work: 3e9, Inputs: []string{"ac"}, Outputs: []string{"cd"}})
	wf.MustAddTask(workflow.TaskSpec{ID: "d", Work: 1e9, Inputs: []string{"bd", "cd"}})
	tr, err := exec.Run(sys, wf, exec.Config{TraceSink: trace.Retain})
	if err != nil {
		t.Fatal(err)
	}
	// b and c run in parallel (zero-size files): 1 + 3 + 1 = 5.
	if !approx(tr.Makespan(), 5.0, 1e-6) {
		t.Errorf("makespan = %v, want 5.0", tr.Makespan())
	}
	b, c := tr.Task(wf.Task("b")), tr.Task(wf.Task("c"))
	if !approx(b.StartedAt, c.StartedAt, 1e-6) {
		t.Errorf("b and c should start together: %v vs %v", b.StartedAt, c.StartedAt)
	}
}

func TestCoreContentionSerializes(t *testing.T) {
	sys := newSystem(t, testConfig(1, 1)) // one core total
	wf := workflow.New("pair")
	wf.MustAddTask(workflow.TaskSpec{ID: "a", Work: 2e9})
	wf.MustAddTask(workflow.TaskSpec{ID: "b", Work: 2e9})
	tr, err := exec.Run(sys, wf, exec.Config{TraceSink: trace.Retain})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(tr.Makespan(), 4.0, 1e-9) {
		t.Errorf("makespan = %v, want 4.0 (serialized on one core)", tr.Makespan())
	}
	if w := tr.Task(wf.Task("b")).WaitTime(); !approx(w, 2.0, 1e-9) {
		t.Errorf("b wait time = %v, want 2.0", w)
	}
}

func TestStageInSequentialToBB(t *testing.T) {
	sys := newSystem(t, testConfig(1, 4))
	wf := workflow.New("stage")
	wf.MustAddFile("f1", 400*units.MB)
	wf.MustAddFile("f2", 400*units.MB)
	wf.MustAddTask(workflow.TaskSpec{
		ID: "stage", Kind: workflow.KindStageIn, Outputs: []string{"f1", "f2"},
	})
	pol := placement.NewExplicit("both", []string{"f1", "f2"})
	tr, err := exec.Run(sys, wf, exec.Config{Placement: pol})
	if err != nil {
		t.Fatal(err)
	}
	// Two sequential 400MB writes at 800MB/s (BB net binds) = 0.5s each.
	if !approx(tr.Makespan(), 1.0, 1e-9) {
		t.Errorf("makespan = %v, want 1.0 (sequential staging)", tr.Makespan())
	}
	// Both replicas exist on PFS and BB.
	node := sys.Platform().Node(0)
	for _, id := range []string{"f1", "f2"} {
		f := wf.File(id)
		if !sys.Registry().Has(f, sys.PFS()) || !sys.Registry().Has(f, sys.BBFor(node)) {
			t.Errorf("file %s replicas wrong", id)
		}
	}
}

func TestStageInPFSFilesAreFree(t *testing.T) {
	sys := newSystem(t, testConfig(1, 4))
	wf := workflow.New("stage")
	wf.MustAddFile("f1", 400*units.MB)
	wf.MustAddFile("f2", 400*units.MB)
	wf.MustAddTask(workflow.TaskSpec{
		ID: "stage", Kind: workflow.KindStageIn, Outputs: []string{"f1", "f2"},
	})
	tr, err := exec.Run(sys, wf, exec.Config{}) // PFSOnly: nothing staged
	if err != nil {
		t.Fatal(err)
	}
	if tr.Makespan() != 0 {
		t.Errorf("makespan = %v, want 0 (no staging cost)", tr.Makespan())
	}
	if !sys.Registry().Has(wf.File("f1"), sys.PFS()) {
		t.Error("unstaged file not on PFS")
	}
}

func TestDownstreamReadsPreferBB(t *testing.T) {
	sys := newSystem(t, testConfig(1, 4))
	wf := workflow.New("stage+read")
	wf.MustAddFile("f", 800*units.MB)
	wf.MustAddTask(workflow.TaskSpec{ID: "stage", Kind: workflow.KindStageIn, Outputs: []string{"f"}})
	wf.MustAddTask(workflow.TaskSpec{ID: "use", Work: 0, Inputs: []string{"f"}})
	pol := placement.NewExplicit("f-to-bb", []string{"f"})
	tr, err := exec.Run(sys, wf, exec.Config{Placement: pol})
	if err != nil {
		t.Fatal(err)
	}
	// Stage: 800MB at 800MB/s = 1s. Read from BB: 1s (not 8s from PFS).
	if !approx(tr.Makespan(), 2.0, 1e-9) {
		t.Errorf("makespan = %v, want 2.0 (read served by BB)", tr.Makespan())
	}
}

func TestOutputsToBBViaPolicy(t *testing.T) {
	sys := newSystem(t, testConfig(1, 4))
	wf := workflow.New("wf")
	wf.MustAddFile("out", 800*units.MB)
	wf.MustAddTask(workflow.TaskSpec{ID: "t", Work: 0, Outputs: []string{"out"}})
	pol := placement.NewExplicit("out-to-bb", []string{"out"})
	tr, err := exec.Run(sys, wf, exec.Config{Placement: pol})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(tr.Makespan(), 1.0, 1e-9) {
		t.Errorf("makespan = %v, want 1.0 (write at BB speed)", tr.Makespan())
	}
	if !sys.Registry().Has(wf.File("out"), sys.BBFor(sys.Platform().Node(0))) {
		t.Error("output not on BB")
	}
}

func TestBBCapacityErrorSurfaces(t *testing.T) {
	cfg := testConfig(1, 4)
	cfg.BB.Capacity = 100 * units.MB
	sys := newSystem(t, cfg)
	wf := workflow.New("wf")
	wf.MustAddFile("big", 200*units.MB)
	wf.MustAddTask(workflow.TaskSpec{ID: "stage", Kind: workflow.KindStageIn, Outputs: []string{"big"}})
	pol := placement.NewExplicit("too-big", []string{"big"})
	if _, err := exec.Run(sys, wf, exec.Config{Placement: pol}); err == nil {
		t.Error("Run succeeded despite BB overflow")
	}
}

func TestPrePlaceInputs(t *testing.T) {
	sys := newSystem(t, testConfig(1, 4))
	wf := workflow.New("wf")
	wf.MustAddFile("in", 800*units.MB) // true workflow input, no producer
	wf.MustAddTask(workflow.TaskSpec{ID: "use", Work: 0, Inputs: []string{"in"}})
	pol := placement.NewExplicit("in-to-bb", []string{"in"})
	tr, err := exec.Run(sys, wf, exec.Config{Placement: pol, PrePlaceInputs: true})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-placed on BB at no cost; read at 800MB/s = 1s.
	if !approx(tr.Makespan(), 1.0, 1e-9) {
		t.Errorf("makespan = %v, want 1.0", tr.Makespan())
	}
}

func TestWithoutPrePlaceReadsFromPFS(t *testing.T) {
	sys := newSystem(t, testConfig(1, 4))
	wf := workflow.New("wf")
	wf.MustAddFile("in", 800*units.MB)
	wf.MustAddTask(workflow.TaskSpec{ID: "use", Work: 0, Inputs: []string{"in"}})
	pol := placement.NewExplicit("in-to-bb", []string{"in"})
	tr, err := exec.Run(sys, wf, exec.Config{Placement: pol}) // no pre-place
	if err != nil {
		t.Fatal(err)
	}
	if !approx(tr.Makespan(), 8.0, 1e-9) { // PFS at 100MB/s
		t.Errorf("makespan = %v, want 8.0", tr.Makespan())
	}
}

func TestInvalidWorkflowRejected(t *testing.T) {
	sys := newSystem(t, testConfig(1, 4))
	wf := workflow.New("cyclic")
	wf.MustAddFile("x", 1)
	wf.MustAddFile("y", 1)
	wf.MustAddTask(workflow.TaskSpec{ID: "t1", Inputs: []string{"x"}, Outputs: []string{"y"}})
	wf.MustAddTask(workflow.TaskSpec{ID: "t2", Inputs: []string{"y"}, Outputs: []string{"x"}})
	if _, err := exec.Run(sys, wf, exec.Config{}); err == nil {
		t.Error("Run accepted cyclic workflow")
	}
}

func TestTraceEventsWellFormed(t *testing.T) {
	sys := newSystem(t, testConfig(1, 4))
	wf := workflow.New("chain")
	wf.MustAddFile("in", 10*units.MB)
	wf.MustAddFile("mid", 10*units.MB)
	wf.MustAddTask(workflow.TaskSpec{ID: "t1", Work: 1e9, Inputs: []string{"in"}, Outputs: []string{"mid"}})
	wf.MustAddTask(workflow.TaskSpec{ID: "t2", Work: 1e9, Inputs: []string{"mid"}})
	tr, err := exec.Run(sys, wf, exec.Config{TraceSink: trace.Retain})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Records() {
		if r.ReadyAt > r.StartedAt || r.StartedAt > r.ReadDoneAt ||
			r.ReadDoneAt > r.ComputeDone || r.ComputeDone > r.FinishedAt {
			t.Errorf("task %s phases out of order: %+v", r.TaskID, r)
		}
	}
	last := 0.0
	for _, ev := range tr.Events() {
		if ev.Time < last {
			t.Fatal("events not in time order")
		}
		last = ev.Time
	}
	if tr.Makespan() != tr.Task(wf.Task("t2")).FinishedAt {
		t.Error("makespan is not the last task completion")
	}
}

func TestMultiNodeScheduling(t *testing.T) {
	sys := newSystem(t, testConfig(2, 1))
	wf := workflow.New("pair")
	wf.MustAddTask(workflow.TaskSpec{ID: "a", Work: 2e9})
	wf.MustAddTask(workflow.TaskSpec{ID: "b", Work: 2e9})
	tr, err := exec.Run(sys, wf, exec.Config{TraceSink: trace.Retain})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(tr.Makespan(), 2.0, 1e-9) {
		t.Errorf("makespan = %v, want 2.0 (two nodes in parallel)", tr.Makespan())
	}
	if tr.Task(wf.Task("a")).Node == tr.Task(wf.Task("b")).Node {
		t.Error("both tasks on the same node despite a free second node")
	}
}

// Property: the makespan is deterministic and bounded below by the
// compute-only critical path (I/O and queueing only add time), and bounded
// above by the sum of all phases run serially.
func TestMakespanBoundsQuick(t *testing.T) {
	f := func(seed int64) bool {
		wf := randomPipelines(seed)
		run := func() float64 {
			sys := newSystemQuick(testConfig(1, 8))
			tr, err := exec.Run(sys, wf, exec.Config{})
			if err != nil {
				return -1
			}
			return tr.Makespan()
		}
		m1, m2 := run(), run()
		if m1 < 0 || m1 != m2 {
			return false
		}
		node := newSystemQuick(testConfig(1, 8)).Platform().Node(0)
		_, cpLower, err := wf.CriticalPath(func(t *workflow.Task) float64 {
			cores := t.Cores()
			if cores > node.Cores() {
				cores = node.Cores()
			}
			return node.ComputeTime(t.Work(), cores, 0)
		})
		if err != nil {
			return false
		}
		var serial float64
		for _, t := range wf.Tasks() {
			serial += node.ComputeTime(t.Work(), 1, 0)
			for _, fs := range [][]*workflow.File{t.Inputs(), t.Outputs()} {
				for _, f := range fs {
					serial += f.Size().Seconds(100 * units.MBps)
				}
			}
		}
		return m1 >= cpLower-1e-6 && m1 <= serial+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func newSystemQuick(cfg platform.Config) *storage.System {
	e := sim.NewEngine()
	p := platform.MustNew(e, cfg)
	return storage.NewSystem(p, nil)
}

// randomPipelines builds n independent two-task pipelines with varied sizes
// and works, seeded deterministically.
func randomPipelines(seed int64) *workflow.Workflow {
	wf := workflow.New("random")
	n := 1 + int(uint64(seed)%5)
	x := uint64(seed)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 33
	}
	for i := 0; i < n; i++ {
		in := wf.MustAddFile(fileID("in", i), units.Bytes(1+next()%50)*units.MB)
		mid := wf.MustAddFile(fileID("mid", i), units.Bytes(1+next()%50)*units.MB)
		wf.MustAddTask(workflow.TaskSpec{
			ID: fileID("t1_", i), Work: units.Flops(1e8 + float64(next()%100)*1e8),
			Cores: 1 + int(next()%4), Inputs: []string{in.ID()}, Outputs: []string{mid.ID()},
		})
		wf.MustAddTask(workflow.TaskSpec{
			ID: fileID("t2_", i), Work: units.Flops(1e8 + float64(next()%100)*1e8),
			Cores: 1 + int(next()%4), Inputs: []string{mid.ID()},
		})
	}
	return wf
}

func fileID(prefix string, i int) string {
	return prefix + string(rune('a'+i))
}
