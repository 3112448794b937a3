package sim

import "testing"

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
