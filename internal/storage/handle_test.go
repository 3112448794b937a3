package storage

import (
	"testing"

	"bbwfsim/internal/platform"
	"bbwfsim/internal/sim"
	"bbwfsim/internal/units"
)

// TestCancelOpAfterCompletionIsNoop: cancelling a completed write's handle
// must not return its reservation a second time or touch the counters.
func TestCancelOpAfterCompletionIsNoop(t *testing.T) {
	e, sys, w := coriSystem(t, platform.BBPrivate)
	f := w.MustAddFile("f", 100*units.MB)
	bb := sys.AllBBs()[0]
	m := sys.Manager()
	h, err := m.Write(sys.Platform().Node(0), f, bb, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	m.Cancel(h)
	if !m.Done(h) {
		t.Error("completed write not Done")
	}
	if bb.Used() != f.Size() || m.PendingReserved(bb) != 0 || bb.state().inFlight != 0 {
		t.Errorf("after a stale cancel: Used %v (want %v), pending %v, in flight %d",
			bb.Used(), f.Size(), m.PendingReserved(bb), bb.state().inFlight)
	}
	if !sys.Registry().Has(f, bb) {
		t.Error("stale cancel unregistered the written replica")
	}
}

// TestCancelStaleOpSparesReissuedSlot: once a completed operation's slot is
// reissued, cancelling the old handle must leave the new operation — its
// reservation, its flow and its completion — untouched.
func TestCancelStaleOpSparesReissuedSlot(t *testing.T) {
	e, sys, w := coriSystem(t, platform.BBPrivate)
	f1 := w.MustAddFile("f1", 100*units.MB)
	f2 := w.MustAddFile("f2", 200*units.MB)
	bb := sys.AllBBs()[0]
	m := sys.Manager()
	node := sys.Platform().Node(0)
	old, err := m.Write(node, f1, bb, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	var done tagLog
	h, err := m.Write(node, f2, bb, &done, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Ref(h).Index() != sim.Ref(old).Index() || h == old {
		t.Fatalf("new op got %+v, want the old slot %d under a new generation", h, sim.Ref(old).Index())
	}
	m.Cancel(old)
	if m.Done(h) || bb.state().inFlight != 1 || m.PendingReserved(bb) != f2.Size() {
		t.Fatalf("stale cancel touched the reissued op: Done %v, in flight %d, pending %v",
			m.Done(h), bb.state().inFlight, m.PendingReserved(bb))
	}
	e.Run()
	if len(done) != 1 || done[0] != 5 {
		t.Errorf("reissued op completions %v, want [5]", done)
	}
	if !sys.Registry().Has(f2, bb) || bb.Used() != f1.Size()+f2.Size() {
		t.Errorf("reissued write: registered %v, Used %v", sys.Registry().Has(f2, bb), bb.Used())
	}
}

// TestOpPathZeroAllocs: once the slabs, the event pool, the registry and
// the path caches have warmed up, a Read→complete, a Write→complete and a
// Copy→complete cycle allocate nothing.
func TestOpPathZeroAllocs(t *testing.T) {
	e, sys, w := coriSystem(t, platform.BBPrivate)
	f := w.MustAddFile("f", 100*units.MB)
	if err := sys.PlaceInitial(f, sys.PFS()); err != nil {
		t.Fatal(err)
	}
	bb := sys.AllBBs()[0]
	m := sys.Manager()
	node := sys.Platform().Node(0)
	var done tagLog
	cycle := func(start func() (OpHandle, error)) func() {
		return func() {
			done = done[:0]
			if _, err := start(); err != nil {
				t.Fatal(err)
			}
			e.Run()
			if len(done) != 1 {
				t.Fatalf("%d completions, want 1", len(done))
			}
		}
	}
	read := cycle(func() (OpHandle, error) { return m.Read(node, f, sys.PFS(), &done, 1) })
	write := cycle(func() (OpHandle, error) { return m.Write(node, f, bb, &done, 2) })
	copyIn := cycle(func() (OpHandle, error) { return m.Copy(node, f, sys.PFS(), bb, &done, 3) })
	if avg := testing.AllocsPerRun(50, read); avg != 0 {
		t.Errorf("Read→complete allocated %.1f times per cycle, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, write); avg != 0 {
		t.Errorf("Write→complete allocated %.1f times per cycle, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, copyIn); avg != 0 {
		t.Errorf("Copy→complete allocated %.1f times per cycle, want 0", avg)
	}
}

// tagLog is a Completer that records the tags it is told.
type tagLog []uint64

func (l *tagLog) OpDone(tag uint64) { *l = append(*l, tag) }
