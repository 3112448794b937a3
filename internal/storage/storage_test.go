package storage

import (
	"math"
	"testing"

	"bbwfsim/internal/metrics"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/sim"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

func approx(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))
}

// coriSystem builds a single-node Cori-like system with no stream caps or
// latencies, so durations are exact bandwidth arithmetic.
func coriSystem(t *testing.T, mode platform.BBMode) (*sim.Engine, *System, *workflow.Workflow) {
	t.Helper()
	e := sim.NewEngine()
	cfg := platform.Cori(1, mode)
	cfg.PFS.StreamCap = 0
	cfg.BB.StreamCap = 0
	p := platform.MustNew(e, cfg)
	return e, NewSystem(p, nil), workflow.New("wf")
}

func summitSystem(t *testing.T, nodes int) (*sim.Engine, *System, *workflow.Workflow) {
	t.Helper()
	e := sim.NewEngine()
	cfg := platform.Summit(nodes)
	cfg.PFS.StreamCap = 0
	cfg.BB.StreamCap = 0
	p := platform.MustNew(e, cfg)
	return e, NewSystem(p, nil), workflow.New("wf")
}

func TestPFSReadDuration(t *testing.T) {
	e, sys, w := coriSystem(t, platform.BBPrivate)
	f := w.MustAddFile("f", 100*units.MB)
	if err := sys.PlaceInitial(f, sys.PFS()); err != nil {
		t.Fatal(err)
	}
	var done float64 = -1
	node := sys.Platform().Node(0)
	if _, err := sys.Manager().Read(node, f, sys.PFS(), Func(func() { done = e.Now() }), 0); err != nil {
		t.Fatal(err)
	}
	e.Run()
	// PFS disk 100 MB/s is the bottleneck → 1 s.
	if !approx(done, 1.0, 1e-9) {
		t.Errorf("PFS read of 100MB finished at %v, want 1.0", done)
	}
}

func TestSharedBBWriteDurationAndRegistration(t *testing.T) {
	e, sys, w := coriSystem(t, platform.BBPrivate)
	f := w.MustAddFile("f", 800*units.MB)
	bb := sys.BBFor(sys.Platform().Node(0))
	if bb.Kind() != KindSharedBB || bb.Mode() != platform.BBPrivate {
		t.Fatalf("BBFor returned %v/%v", bb.Kind(), bb.Mode())
	}
	var done float64 = -1
	if _, err := sys.Manager().Write(sys.Platform().Node(0), f, bb, Func(func() { done = e.Now() }), 0); err != nil {
		t.Fatal(err)
	}
	if !approx(float64(bb.Used()), 800e6, 1e-9) {
		t.Errorf("reservation not taken at write start: used=%v", bb.Used())
	}
	if sys.Registry().Has(f, bb) {
		t.Error("replica registered before write completion")
	}
	e.Run()
	// BB network 800 MB/s binds (disk is 950) → 1 s.
	if !approx(done, 1.0, 1e-9) {
		t.Errorf("BB write of 800MB finished at %v, want 1.0", done)
	}
	if !sys.Registry().Has(f, bb) {
		t.Error("replica not registered after write")
	}
}

func TestReadWithoutReplicaFails(t *testing.T) {
	_, sys, w := coriSystem(t, platform.BBPrivate)
	f := w.MustAddFile("f", 1*units.MB)
	if _, err := sys.Manager().Read(sys.Platform().Node(0), f, sys.PFS(), nil, 0); err == nil {
		t.Error("read of unplaced file succeeded")
	}
}

func TestCapacityFull(t *testing.T) {
	e, sys, w := coriSystem(t, platform.BBPrivate)
	bb := sys.AllBBs()[0]
	big := w.MustAddFile("big", bb.Capacity())
	over := w.MustAddFile("over", 1*units.MB)
	node := sys.Platform().Node(0)
	if _, err := sys.Manager().Write(node, big, bb, nil, 0); err != nil {
		t.Fatalf("first write rejected: %v", err)
	}
	_, err := sys.Manager().Write(node, over, bb, nil, 0)
	if err == nil {
		t.Fatal("write beyond capacity succeeded")
	}
	if _, ok := err.(*FullError); !ok {
		t.Errorf("error type %T, want *FullError", err)
	}
	e.Run()
}

func TestCopyStagesFile(t *testing.T) {
	e, sys, w := coriSystem(t, platform.BBStriped)
	f := w.MustAddFile("f", 100*units.MB)
	if err := sys.PlaceInitial(f, sys.PFS()); err != nil {
		t.Fatal(err)
	}
	node := sys.Platform().Node(0)
	bb := sys.BBFor(node)
	var done float64 = -1
	if _, err := sys.Manager().Copy(node, f, sys.PFS(), bb, Func(func() { done = e.Now() }), 0); err != nil {
		t.Fatal(err)
	}
	e.Run()
	// The PFS disk (100 MB/s) bottlenecks the copy → 1 s.
	if !approx(done, 1.0, 1e-9) {
		t.Errorf("copy finished at %v, want 1.0", done)
	}
	if !sys.Registry().Has(f, bb) || !sys.Registry().Has(f, sys.PFS()) {
		t.Error("copy should leave replicas on both services")
	}
}

func TestCopyToSelfFails(t *testing.T) {
	_, sys, w := coriSystem(t, platform.BBPrivate)
	f := w.MustAddFile("f", 1*units.MB)
	if err := sys.PlaceInitial(f, sys.PFS()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Manager().Copy(sys.Platform().Node(0), f, sys.PFS(), sys.PFS(), nil, 0); err == nil {
		t.Error("copy onto itself succeeded")
	}
}

func TestOnNodeBBLocalAndRemote(t *testing.T) {
	e, sys, w := summitSystem(t, 2)
	n0, n1 := sys.Platform().Node(0), sys.Platform().Node(1)
	bb0 := sys.BBFor(n0)
	if bb0.Kind() != KindNodeBB || !bb0.Local(n0) || bb0.Local(n1) {
		t.Fatal("node BB locality wrong")
	}
	if sys.BBFor(n1) == bb0 {
		t.Fatal("nodes share an on-node BB")
	}
	f := w.MustAddFile("f", 3.3*1000*units.MB)
	var wrote float64 = -1
	if _, err := sys.Manager().Write(n0, f, bb0, Func(func() { wrote = e.Now() }), 0); err != nil {
		t.Fatal(err)
	}
	e.Run()
	// Local write: only the 3.3 GB/s NVMe in the path → 1 s.
	if !approx(wrote, 1.0, 1e-9) {
		t.Errorf("local BB write finished at %v, want 1.0", wrote)
	}
	// Remote read from n1 crosses both links and the disk.
	var read float64 = -1
	if _, err := sys.Manager().Read(n1, f, bb0, Func(func() { read = e.Now() }), 0); err != nil {
		t.Fatal(err)
	}
	start := e.Now()
	e.Run()
	if !approx(read-start, 1.0, 1e-9) { // disk still the bottleneck
		t.Errorf("remote BB read took %v, want 1.0", read-start)
	}
}

func TestRemoteStreamCapOnNodeBB(t *testing.T) {
	e := sim.NewEngine()
	cfg := platform.Summit(2)
	cfg.BB.StreamCap = 0
	cfg.BB.NetworkBW = 1 * units.GBps // fabric caps remote access
	p := platform.MustNew(e, cfg)
	sys := NewSystem(p, nil)
	w := workflow.New("wf")
	f := w.MustAddFile("f", 1000*units.MB)
	n0, n1 := p.Node(0), p.Node(1)
	bb0 := sys.BBFor(n0)
	sys.Manager().Write(n0, f, bb0, nil, 0)
	e.Run()
	var read float64 = -1
	start := e.Now()
	if _, err := sys.Manager().Read(n1, f, bb0, Func(func() { read = e.Now() }), 0); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if !approx(read-start, 1.0, 1e-9) { // capped at 1 GB/s
		t.Errorf("remote capped read took %v, want 1.0", read-start)
	}
}

func TestRegistryBestPrefersLocalBB(t *testing.T) {
	_, sys, w := summitSystem(t, 2)
	n0, n1 := sys.Platform().Node(0), sys.Platform().Node(1)
	f := w.MustAddFile("f", 1*units.MB)
	reg := sys.Registry()
	reg.Add(f, sys.PFS())
	reg.Add(f, sys.BBFor(n0))
	best, err := reg.BestVisible(f, n0, false)
	if err != nil || best != sys.BBFor(n0) {
		t.Errorf("Best on n0 = %v, want local BB", best)
	}
	// From n1 the remote node BB still beats the PFS.
	best, err = reg.BestVisible(f, n1, false)
	if err != nil || best.Kind() != KindNodeBB {
		t.Errorf("Best on n1 = %v, want node BB", best)
	}
}

func TestRegistryBestNoReplica(t *testing.T) {
	_, sys, w := coriSystem(t, platform.BBPrivate)
	f := w.MustAddFile("f", 1*units.MB)
	if _, err := sys.Registry().BestVisible(f, sys.Platform().Node(0), false); err == nil {
		t.Error("Best on unplaced file succeeded")
	}
}

func TestEvictFreesSpace(t *testing.T) {
	e, sys, w := coriSystem(t, platform.BBPrivate)
	f := w.MustAddFile("f", 10*units.MB)
	bb := sys.AllBBs()[0]
	sys.Manager().Write(sys.Platform().Node(0), f, bb, nil, 0)
	e.Run()
	if err := sys.Manager().Evict(f, bb); err != nil {
		t.Fatal(err)
	}
	if bb.Used() != 0 {
		t.Errorf("Used = %v after evict, want 0", bb.Used())
	}
	if sys.Registry().Has(f, bb) {
		t.Error("replica still registered after evict")
	}
	if err := sys.Manager().Evict(f, bb); err == nil {
		t.Error("double evict succeeded")
	}
}

func TestCancelWriteReleasesReservation(t *testing.T) {
	e, sys, w := coriSystem(t, platform.BBPrivate)
	f := w.MustAddFile("f", 100*units.MB)
	bb := sys.AllBBs()[0]
	node := sys.Platform().Node(0)
	op, err := sys.Manager().Write(node, f, bb, Func(func() { t.Error("cancelled write callback ran") }), 0)
	if err != nil {
		t.Fatal(err)
	}
	e.After(0.01, func() { sys.Manager().Cancel(op) })
	e.Run()
	if bb.Used() != 0 {
		t.Errorf("Used = %v after cancel, want 0", bb.Used())
	}
	if sys.Registry().Has(f, bb) {
		t.Error("cancelled write registered a replica")
	}
	if bb.state().inFlight != 0 {
		t.Errorf("InFlight = %d after cancel, want 0", bb.state().inFlight)
	}
}

func TestInFlightCounting(t *testing.T) {
	e, sys, w := coriSystem(t, platform.BBPrivate)
	node := sys.Platform().Node(0)
	for i := 0; i < 3; i++ {
		f := w.MustAddFile(string(rune('a'+i)), 50*units.MB)
		sys.PlaceInitial(f, sys.PFS())
		sys.Manager().Read(node, f, sys.PFS(), nil, 0)
	}
	if got := sys.PFS().state().inFlight; got != 3 {
		t.Errorf("InFlight = %d, want 3", got)
	}
	e.Run()
	if got := sys.PFS().state().inFlight; got != 0 {
		t.Errorf("InFlight = %d after run, want 0", got)
	}
}

func TestStatsAccumulate(t *testing.T) {
	e, sys, w := coriSystem(t, platform.BBPrivate)
	node := sys.Platform().Node(0)
	bb := sys.AllBBs()[0]
	f1 := w.MustAddFile("f1", 80*units.MB)
	f2 := w.MustAddFile("f2", 160*units.MB)
	sys.Manager().Write(node, f1, bb, nil, 0)
	sys.Manager().Write(node, f2, bb, nil, 0)
	e.Run()
	st := sys.Manager().Stats(bb)
	if st.WriteOps != 2 || st.BytesWritten != 240*units.MB {
		t.Errorf("stats = %+v, want 2 ops / 240 MB", st)
	}
	if st.WriteBandwidth() <= 0 {
		t.Error("WriteBandwidth not positive")
	}
	// Aggregate via System.
	agg := sys.BBStats()
	if agg.BytesWritten != 240*units.MB {
		t.Errorf("BBStats bytes = %v, want 240 MB", agg.BytesWritten)
	}
}

// latencyModel doubles latency and stretches transfers by 1.5×.
type latencyModel struct{}

func (latencyModel) Adjust(_ *OpContext, base OpParams) OpParams {
	base.Latency = base.Latency*2 + 1
	base.SizeFactor = 1.5
	return base
}

func TestOpModelAdjusts(t *testing.T) {
	e := sim.NewEngine()
	cfg := platform.Cori(1, platform.BBPrivate)
	cfg.PFS.StreamCap = 0
	p := platform.MustNew(e, cfg)
	sys := NewSystem(p, latencyModel{})
	w := workflow.New("wf")
	f := w.MustAddFile("f", 100*units.MB)
	sys.PlaceInitial(f, sys.PFS())
	var done float64 = -1
	sys.Manager().Read(p.Node(0), f, sys.PFS(), Func(func() { done = e.Now() }), 0)
	e.Run()
	// Latency 0*2+1 = 1 s, transfer 150 MB effective at 100 MB/s = 1.5 s.
	if !approx(done, 2.5, 1e-9) {
		t.Errorf("modeled read finished at %v, want 2.5", done)
	}
	// Stats record the logical size, not the stretched volume.
	if st := sys.Manager().Stats(sys.PFS()); st.BytesRead != 100*units.MB {
		t.Errorf("BytesRead = %v, want logical 100 MB", st.BytesRead)
	}
}

func TestStreamCapLimitsSingleStream(t *testing.T) {
	e := sim.NewEngine()
	cfg := platform.Cori(1, platform.BBPrivate) // BB stream cap 160 MB/s
	p := platform.MustNew(e, cfg)
	sys := NewSystem(p, nil)
	w := workflow.New("wf")
	f := w.MustAddFile("f", 160*units.MB)
	var done float64 = -1
	sys.Manager().Write(p.Node(0), f, sys.AllBBs()[0], Func(func() { done = e.Now() }), 0)
	e.Run()
	// One stream is capped at 160 MB/s even though the BB path allows 800.
	if !approx(done, 1.0, 1e-9) {
		t.Errorf("capped write finished at %v, want 1.0", done)
	}
}

func TestConcurrentStreamsSaturateSharedBB(t *testing.T) {
	e := sim.NewEngine()
	cfg := platform.Cori(1, platform.BBPrivate)
	p := platform.MustNew(e, cfg)
	sys := NewSystem(p, nil)
	w := workflow.New("wf")
	node := p.Node(0)
	// 10 concurrent streams of 160 MB: aggregate demand 1600 MB/s exceeds
	// the 800 MB/s BB network link → each gets 80 MB/s → 2 s.
	var last float64
	for i := 0; i < 10; i++ {
		f := w.MustAddFile(string(rune('a'+i)), 160*units.MB)
		sys.Manager().Write(node, f, sys.AllBBs()[0], Func(func() { last = e.Now() }), 0)
	}
	e.Run()
	if !approx(last, 2.0, 1e-9) {
		t.Errorf("10 concurrent capped writes finished at %v, want 2.0", last)
	}
}

func TestPlaceInitialDuplicate(t *testing.T) {
	_, sys, w := coriSystem(t, platform.BBPrivate)
	f := w.MustAddFile("f", 1*units.MB)
	if err := sys.PlaceInitial(f, sys.PFS()); err != nil {
		t.Fatal(err)
	}
	if err := sys.PlaceInitial(f, sys.PFS()); err == nil {
		t.Error("duplicate PlaceInitial succeeded")
	}
}

func TestServicesEnumeration(t *testing.T) {
	_, sysCori, _ := coriSystem(t, platform.BBPrivate)
	if got := len(sysCori.Services()); got != 2 { // pfs + shared bb
		t.Errorf("Cori services = %d, want 2", got)
	}
	_, sysSummit, _ := summitSystem(t, 3)
	if got := len(sysSummit.Services()); got != 4 { // pfs + 3 node BBs
		t.Errorf("Summit services = %d, want 4", got)
	}
	for _, bb := range sysSummit.AllBBs() {
		if bb.Kind() != KindNodeBB {
			t.Errorf("Summit reports a %v burst buffer", bb.Kind())
		}
	}
}

func TestCancelCopyReleasesReservation(t *testing.T) {
	e, sys, w := coriSystem(t, platform.BBPrivate)
	f := w.MustAddFile("f", 100*units.MB)
	sys.PlaceInitial(f, sys.PFS())
	bb := sys.AllBBs()[0]
	node := sys.Platform().Node(0)
	op, err := sys.Manager().Copy(node, f, sys.PFS(), bb, Func(func() {
		t.Error("cancelled copy callback ran")
	}), 0)
	if err != nil {
		t.Fatal(err)
	}
	e.After(0.01, func() { sys.Manager().Cancel(op) })
	e.Run()
	if bb.Used() != 0 {
		t.Errorf("Used = %v after cancelled copy, want 0", bb.Used())
	}
	if sys.Registry().Has(f, bb) {
		t.Error("cancelled copy registered a replica")
	}
	// Double cancel is a no-op.
	sys.Manager().Cancel(op)
}

func TestCopySourceMissing(t *testing.T) {
	_, sys, w := coriSystem(t, platform.BBPrivate)
	f := w.MustAddFile("f", 1*units.MB)
	if _, err := sys.Manager().Copy(sys.Platform().Node(0), f, sys.PFS(), sys.AllBBs()[0], nil, 0); err == nil {
		t.Error("copy from a service without the file succeeded")
	}
}

func TestCreatorTracking(t *testing.T) {
	e, sys, w := coriSystem(t, platform.BBPrivate)
	f := w.MustAddFile("f", 10*units.MB)
	node := sys.Platform().Node(0)
	sys.Manager().Write(node, f, sys.AllBBs()[0], nil, 0)
	e.Run()
	if got := sys.Registry().Creator(f, sys.AllBBs()[0]); got != node {
		t.Errorf("Creator = %v, want %v", got, node)
	}
	if got := sys.Registry().Creator(f, sys.PFS()); got != nil {
		t.Errorf("Creator on absent replica = %v, want nil", got)
	}
	g := w.MustAddFile("g", 1*units.MB)
	sys.PlaceInitial(g, sys.PFS())
	if got := sys.Registry().Creator(g, sys.PFS()); got != nil {
		t.Errorf("Creator of initial placement = %v, want nil (visible everywhere)", got)
	}
}

// TestOpMetricsPerTierAndOp: every completed leg lands in its (tier, op)
// series — held after the first operation on a known tier, looked up each
// time on a kind the manager does not know — and untouched pairs never
// appear.
func TestOpMetricsPerTierAndOp(t *testing.T) {
	e, sys, w := coriSystem(t, platform.BBPrivate)
	col := metrics.New("cori", "wf")
	m := sys.Manager()
	m.SetMetrics(col)
	node := sys.Platform().Node(0)
	scratch := NewRemote(sys.Platform(), "scratch", Kind("scratch"), platform.BBModeNone, platform.Cori(1, platform.BBPrivate).PFS)
	f1 := w.MustAddFile("f1", 80*units.MB)
	f2 := w.MustAddFile("f2", 160*units.MB)
	for _, start := range []func() (OpHandle, error){
		func() (OpHandle, error) { return m.Write(node, f1, sys.AllBBs()[0], nil, 0) },
		func() (OpHandle, error) { return m.Write(node, f2, sys.AllBBs()[0], nil, 0) },
		func() (OpHandle, error) { return m.Write(node, f1, scratch, nil, 0) },
		func() (OpHandle, error) { return m.Write(node, f2, scratch, nil, 0) },
	} {
		if _, err := start(); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	if _, err := m.Copy(node, f1, sys.AllBBs()[0], sys.PFS(), nil, 0); err != nil {
		t.Fatal(err)
	}
	e.Run()

	snap := col.Snapshot()
	want := map[metrics.Key]float64{
		{Tier: "shared-bb", Op: metrics.OpWrite}: 2,
		{Tier: "scratch", Op: metrics.OpWrite}:   2,
		{Tier: "shared-bb", Op: metrics.OpRead}:  1,
		{Tier: "pfs", Op: metrics.OpWrite}:       1,
	}
	got := map[metrics.Key]float64{}
	for _, c := range snap.Counters {
		if c.Family == metrics.StorageOpsTotal {
			got[c.Key] = c.Value
		}
	}
	if len(got) != len(want) {
		t.Errorf("ops series %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s %v = %g, want %g", metrics.StorageOpsTotal, k, got[k], v)
		}
	}
	if b := snap.Counter(metrics.StorageBytesTotal, metrics.Key{Tier: "scratch", Op: metrics.OpWrite}); b != float64(240*units.MB) {
		t.Errorf("scratch write bytes = %g, want %g", b, float64(240*units.MB))
	}
}
