package ckpttraffic

import (
	"math"
	"testing"

	"bbwfsim/internal/exec"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/sim"
	"bbwfsim/internal/storage"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

func approx(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))
}

func testConfig() platform.Config {
	return platform.Config{
		Name:         "test",
		Nodes:        1,
		CoresPerNode: 4,
		CoreSpeed:    1 * units.GFlopPerSec,
		NodeLinkBW:   10 * units.GBps,
		PFS:          platform.StorageConfig{NetworkBW: 1 * units.GBps, DiskBW: 100 * units.MBps},
		BB:           platform.StorageConfig{NetworkBW: 800 * units.MBps, DiskBW: 950 * units.MBps},
		BBKind:       platform.BBShared,
		BBMode:       platform.BBPrivate,
	}
}

func TestValidation(t *testing.T) {
	for _, p := range []Params{
		{Interval: 0, Size: 1},
		{Interval: -1, Size: 1},
		{Interval: 1, Size: 0},
		{Interval: 1, Size: 1, FirstWave: -1},
	} {
		if _, err := New(p); err == nil {
			t.Errorf("invalid params accepted: %+v", p)
		}
	}
}

func TestWavesFireAndRotate(t *testing.T) {
	e := sim.NewEngine()
	p := platform.MustNew(e, testConfig())
	sys := storage.NewSystem(p, nil)
	inj := newInjector(t, Params{Interval: 1, Size: 80 * units.MB, ToBB: true})
	inj.Start(sys, workflow.New("side"))
	e.RunUntil(10.5)
	// Waves at t=1..10, each 80MB at 800MB/s = 0.1s: 10 complete.
	if inj.Waves != 10 {
		t.Errorf("Waves = %d, want 10", inj.Waves)
	}
	if inj.BytesWritten != 800*units.MB {
		t.Errorf("BytesWritten = %v, want 800 MB", inj.BytesWritten)
	}
	// Rotation: only the latest checkpoint resident.
	bb := sys.AllBBs()[0]
	if bb.Used() != 80*units.MB {
		t.Errorf("BB used = %v, want 80 MB (one rotating checkpoint)", bb.Used())
	}
}

func TestCheckpointInterferenceSlowsWorkflow(t *testing.T) {
	// A workflow task writing 800 MB to the BB, alone vs with aggressive
	// checkpoint traffic sharing the BB.
	build := func(bg []exec.Background) float64 {
		e := sim.NewEngine()
		p := platform.MustNew(e, testConfig())
		sys := storage.NewSystem(p, nil)
		wf := workflow.New("wf")
		wf.MustAddFile("out", 800*units.MB)
		wf.MustAddTask(workflow.TaskSpec{ID: "t", Work: 0, Outputs: []string{"out"}})
		pol := bbPolicy{}
		tr, err := exec.Run(sys, wf, exec.Config{Placement: pol, Background: bg})
		if err != nil {
			t.Fatal(err)
		}
		return tr.Makespan()
	}
	alone := build(nil)
	inj := newInjector(t, Params{Interval: 0.2, Size: 400 * units.MB, ToBB: true, FirstWave: 0.01})
	loaded := build([]exec.Background{inj})
	if !approx(alone, 1.0, 1e-9) {
		t.Fatalf("alone makespan = %v, want 1.0", alone)
	}
	if loaded <= alone*1.2 {
		t.Errorf("checkpoint traffic should slow the workflow: %v vs %v", loaded, alone)
	}
	if inj.Waves == 0 {
		t.Error("injector never completed a wave")
	}
}

func TestEngineStopsAtWorkflowEnd(t *testing.T) {
	// The periodic injector must not keep the clock running after the
	// last task finishes.
	e := sim.NewEngine()
	p := platform.MustNew(e, testConfig())
	sys := storage.NewSystem(p, nil)
	wf := workflow.New("wf")
	wf.MustAddTask(workflow.TaskSpec{ID: "t", Work: 2e9}) // 2 s
	inj := newInjector(t, Params{Interval: 0.5, Size: 10 * units.MB, ToBB: false})
	tr, err := exec.Run(sys, wf, exec.Config{Background: []exec.Background{inj}})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(tr.Makespan(), 2.0, 1e-9) {
		t.Errorf("makespan = %v, want 2.0", tr.Makespan())
	}
	if e.Now() > 2.0+1e-9 {
		t.Errorf("engine ran to %v after workflow end", e.Now())
	}
}

func TestMidRunTerminationCountersConsistent(t *testing.T) {
	// End the workflow while a checkpoint write is still in flight: the
	// interrupted wave must not count, the byte counter must agree with the
	// wave counter, and no stray events may fire after the workflow end.
	e := sim.NewEngine()
	p := platform.MustNew(e, testConfig())
	sys := storage.NewSystem(p, nil)
	wf := workflow.New("wf")
	wf.MustAddTask(workflow.TaskSpec{ID: "t", Work: 2e9}) // 2 s
	// PFS disk 100 MB/s → each 80 MB wave takes 0.8 s. Waves start at 0.9
	// and 1.8; the second is still in flight when the workflow ends at 2.0.
	inj := newInjector(t, Params{Interval: 0.9, Size: 80 * units.MB, ToBB: false})
	tr, err := exec.Run(sys, wf, exec.Config{Background: []exec.Background{inj}})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(tr.Makespan(), 2.0, 1e-9) {
		t.Fatalf("makespan = %v, want 2.0", tr.Makespan())
	}
	if inj.Waves != 1 {
		t.Errorf("Waves = %d, want 1 (second wave interrupted mid-write)", inj.Waves)
	}
	if want := units.Bytes(inj.Waves) * 80 * units.MB; inj.BytesWritten != want {
		t.Errorf("BytesWritten = %v, inconsistent with %d waves (want %v)", inj.BytesWritten, inj.Waves, want)
	}
	// Draining the queue past the stop point must not complete the
	// interrupted wave or schedule new ones at the stopped virtual time —
	// the engine halted inside the workflow-completion event, so counters
	// are final.
	waves, bytes := inj.Waves, inj.BytesWritten
	if e.Now() > 2.0+1e-9 {
		t.Errorf("engine advanced to %v after workflow end", e.Now())
	}
	if inj.Waves != waves || inj.BytesWritten != bytes {
		t.Errorf("counters moved after workflow end: %d/%v -> %d/%v", waves, bytes, inj.Waves, inj.BytesWritten)
	}
}

func TestTerminationBeforeFirstWave(t *testing.T) {
	// A workflow shorter than FirstWave terminates with zero checkpoint
	// activity — no waves, no bytes, no files left on any service.
	e := sim.NewEngine()
	p := platform.MustNew(e, testConfig())
	sys := storage.NewSystem(p, nil)
	wf := workflow.New("wf")
	wf.MustAddTask(workflow.TaskSpec{ID: "t", Work: 1e9}) // 1 s
	inj := newInjector(t, Params{Interval: 5, Size: 10 * units.MB, ToBB: true})
	if _, err := exec.Run(sys, wf, exec.Config{Background: []exec.Background{inj}}); err != nil {
		t.Fatal(err)
	}
	if inj.Waves != 0 || inj.BytesWritten != 0 {
		t.Errorf("injector ran before its first wave: %d waves, %v", inj.Waves, inj.BytesWritten)
	}
	if used := sys.AllBBs()[0].Used(); used != 0 {
		t.Errorf("BB used = %v with no completed wave", used)
	}
}

func TestDownNodesSkipWaves(t *testing.T) {
	// A failed node emits no checkpoint traffic while down, and resumes
	// with the first wave after its repair.
	e := sim.NewEngine()
	p := platform.MustNew(e, testConfig())
	sys := storage.NewSystem(p, nil)
	inj := newInjector(t, Params{Interval: 1, Size: 80 * units.MB, ToBB: true})
	inj.Start(sys, workflow.New("side"))
	node := p.Node(0)
	e.After(2.5, func() { node.SetDown(true) })
	e.After(6.5, func() { node.SetDown(false) })
	e.RunUntil(10.5)
	// Waves complete at t≈1..2 and t≈7..10 (down through 3..6): 6 total.
	if inj.Waves != 6 {
		t.Errorf("Waves = %d, want 6 (4 skipped while the node was down)", inj.Waves)
	}
	if want := units.Bytes(inj.Waves) * 80 * units.MB; inj.BytesWritten != want {
		t.Errorf("BytesWritten = %v, want %v", inj.BytesWritten, want)
	}
}

func TestFullTargetDegradesGracefully(t *testing.T) {
	cfg := testConfig()
	cfg.BB.Capacity = 50 * units.MB
	e := sim.NewEngine()
	p := platform.MustNew(e, cfg)
	sys := storage.NewSystem(p, nil)
	inj := newInjector(t, Params{Interval: 1, Size: 80 * units.MB, ToBB: true})
	inj.Start(sys, workflow.New("side"))
	e.RunUntil(5)
	if inj.Waves != 0 {
		t.Errorf("Waves = %d on a too-small BB, want 0 (skipped, not crashed)", inj.Waves)
	}
}

// bbPolicy sends every output to the burst buffer.
type bbPolicy struct{}

func (bbPolicy) StageTarget(*workflow.File, *storage.System, *platform.Node) storage.Service {
	return nil
}

func (bbPolicy) OutputTarget(_ *workflow.Task, _ *workflow.File, sys *storage.System, node *platform.Node) storage.Service {
	return sys.BBFor(node)
}

func newInjector(t *testing.T, p Params) *Injector {
	t.Helper()
	inj, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}
