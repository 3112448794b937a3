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
		if !a.Cancelled() || !b.Cancelled() {
			t.Fatal("handles should read Cancelled after cancel/fire")
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
// an event fires or is cancelled, its struct may be reissued, and the old
// handle must neither cancel nor observe the new occurrence.
func TestStaleHandleSafeAcrossReuse(t *testing.T) {
	e := NewEngine()
	stale := e.At(1, func() {})
	e.Run() // fires; the struct returns to the free list

	secondFired := false
	fresh := e.At(2, func() { secondFired = true })
	if fresh.ev != stale.ev {
		t.Fatal("free list did not reuse the retired event struct")
	}
	if !stale.Cancelled() {
		t.Error("stale handle should read Cancelled after its occurrence fired")
	}
	if fresh.Cancelled() {
		t.Error("fresh handle should be pending")
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
	e.Cancel(h) // stale again: struct was reissued to h2
	e.Run()
	if !thirdFired {
		t.Fatal("stale Cancel after cancel removed a reissued event")
	}
	if h2.Cancelled() != true {
		t.Error("h2 should read Cancelled after firing")
	}
}
