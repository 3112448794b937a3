package sim

import (
	"math"
	"testing"
)

// TestChurnZeroAllocs asserts the event free list works: after warm-up, a
// schedule/cancel/fire churn loop allocates nothing (the ISSUE-8 companion
// to flow's TestRecomputeZeroAllocs).
func TestChurnZeroAllocs(t *testing.T) {
	e := NewEngine()
	fired := 0
	fn := func() { fired++ }
	churn := func() {
		// Two scheduled, one cancelled, one fired, plus a same-time pair to
		// exercise heap movement.
		a := e.After(1, fn)
		b := e.After(2, fn)
		e.After(2, fn)
		e.Cancel(a)
		e.RunUntil(e.Now() + 3)
		if e.Scheduled(a) || e.Scheduled(b) {
			t.Fatal("handles should read not Scheduled after cancel/fire")
		}
	}
	for i := 0; i < 10; i++ { // warm up the free list and heap backing array
		churn()
	}
	avg := testing.AllocsPerRun(100, churn)
	if avg != 0 {
		t.Fatalf("steady-state churn allocated %.1f allocs/op, want 0", avg)
	}
	if fired == 0 {
		t.Fatal("no events fired")
	}
}

// TestStaleHandleSafeAcrossReuse pins the generation-counter contract: once
// an event fires or is cancelled, its slot may be reissued, and the old
// handle must neither cancel nor observe the new occurrence.
func TestStaleHandleSafeAcrossReuse(t *testing.T) {
	e := NewEngine()
	stale := e.At(1, func() {})
	e.Run() // fires; the slot returns to the free list

	secondFired := false
	fresh := e.At(2, func() { secondFired = true })
	if fresh.slot != stale.slot {
		t.Fatal("free list did not reuse the retired event slot")
	}
	if e.Scheduled(stale) {
		t.Error("stale handle should not read Scheduled after its occurrence fired")
	}
	if !e.Scheduled(fresh) {
		t.Error("fresh handle should be Scheduled")
	}
	e.Cancel(stale) // must NOT cancel the reissued occurrence
	e.Run()
	if !secondFired {
		t.Fatal("stale Cancel removed an unrelated reissued event")
	}

	// And a cancelled occurrence invalidates its handle the same way.
	h := e.At(e.Now()+1, func() {})
	e.Cancel(h)
	thirdFired := false
	h2 := e.At(e.Now()+1, func() { thirdFired = true })
	e.Cancel(h) // stale again: the slot was reissued to h2
	e.Run()
	if !thirdFired {
		t.Fatal("stale Cancel after cancel removed a reissued event")
	}
	if e.Scheduled(h2) {
		t.Error("h2 should not read Scheduled after firing")
	}
}

// TestReserveZeroAllocs: once reserved, queuing that many tagged events
// grows neither the heap nor the slab.
func TestReserveZeroAllocs(t *testing.T) {
	e := NewEngine()
	fn := func(uint64) {}
	e.Reserve(200) // AllocsPerRun's warm-up call queues the first 100
	queue := func() {
		for i := 0; i < 100; i++ {
			e.AfterTag(float64(i%7), fn, uint64(i))
		}
	}
	if avg := testing.AllocsPerRun(1, queue); avg != 0 {
		t.Fatalf("queuing 100 reserved events allocated %.1f times, want 0", avg)
	}
	if e.Pending() != 200 {
		t.Fatalf("%d pending, want 200", e.Pending())
	}
}

// TestSlabZeroRefIsStale: the zero Ref names no value, on an empty slab
// and on one whose slot 0 is issued.
func TestSlabZeroRefIsStale(t *testing.T) {
	var s Slab[int]
	if s.Live(Ref{}) != nil {
		t.Error("zero Ref is live on an empty slab")
	}
	r, _ := s.Alloc()
	if r.Index() != 0 || s.Live(r) == nil {
		t.Fatalf("first Alloc gave %+v, want live slot 0", r)
	}
	if s.Live(Ref{}) != nil {
		t.Error("zero Ref is live while slot 0 is issued")
	}
}

// TestSlabReissueRejectsOldRef: a freed slot is reissued under a new
// generation, and the old Ref no longer names it.
func TestSlabReissueRejectsOldRef(t *testing.T) {
	var s Slab[int]
	old, v := s.Alloc()
	*v = 7
	s.Free(old.Index())
	if s.Live(old) != nil {
		t.Fatal("freed slot's Ref is still live")
	}
	r, v := s.Alloc()
	if r.Index() != old.Index() || r == old {
		t.Fatalf("reissue gave %+v, want slot %d under a new generation", r, old.Index())
	}
	if *v != 7 {
		t.Errorf("reissued value %d, want 7: the pool must not zero a value", *v)
	}
	if s.Live(old) != nil || s.Live(r) != v || s.Ref(r.Index()) != r {
		t.Error("old Ref live, or new Ref not naming the reissued slot")
	}
}

// TestSlabGenerationWrapSkipsZero: freeing a slot at the last generation
// wraps to 1, so the slot never reads as the zero Ref's generation.
func TestSlabGenerationWrapSkipsZero(t *testing.T) {
	var s Slab[int]
	r, _ := s.Alloc()
	s.slots[r.Index()].gen = math.MaxUint32
	last := s.Ref(r.Index())
	s.Free(r.Index())
	if g := s.slots[r.Index()].gen; g != 1 {
		t.Fatalf("generation after MaxUint32 is %d, want 1", g)
	}
	again, _ := s.Alloc()
	if s.Live(last) != nil || s.Live(Ref{slot: again.Index()}) != nil || s.Live(again) == nil {
		t.Error("wrap left a stale Ref live or the reissued Ref stale")
	}
}

// TestRefTagRoundTrip: RefOf inverts Tag, whatever the slot and
// generation bits.
func TestRefTagRoundTrip(t *testing.T) {
	for _, r := range []Ref{{}, {slot: 1, gen: 1}, {slot: math.MaxInt32, gen: math.MaxUint32}, {slot: 12345, gen: 1 << 31}} {
		if got := RefOf(r.Tag()); got != r {
			t.Errorf("RefOf(%+v.Tag()) = %+v", r, got)
		}
	}
}

// TestSlabGrowZeroAllocs: after Grow(n), n Allocs allocate nothing.
func TestSlabGrowZeroAllocs(t *testing.T) {
	var s Slab[event]
	s.Grow(200) // AllocsPerRun's warm-up call takes the first 100
	alloc := func() {
		for i := 0; i < 100; i++ {
			s.Alloc()
		}
	}
	if avg := testing.AllocsPerRun(1, alloc); avg != 0 {
		t.Fatalf("100 Allocs after Grow allocated %.1f times, want 0", avg)
	}
	if len(s.slots) != 200 {
		t.Fatalf("%d slots, want 200", len(s.slots))
	}
}
