package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		e.At(at, func() { order = append(order, at) })
	}
	end := e.Run()
	if end != 5 {
		t.Errorf("Run() = %v, want 5", end)
	}
	if !sort.Float64sAreSorted(order) {
		t.Errorf("events fired out of order: %v", order)
	}
	if len(order) != 5 {
		t.Errorf("fired %d events, want 5", len(order))
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(7, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired in order %v, want FIFO", order)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	e := NewEngine()
	var fired float64
	e.At(10, func() {
		e.After(5, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 15 {
		t.Errorf("nested After fired at %v, want 15", fired)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(1, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if e.Scheduled(ev) {
		t.Error("Scheduled() = true after Cancel")
	}
	// Double-cancel and zero-handle cancel are no-ops.
	e.Cancel(ev)
	e.Cancel(Handle{})
}

func TestCancelFromWithinEvent(t *testing.T) {
	e := NewEngine()
	fired := false
	var ev Handle
	e.At(1, func() { e.Cancel(ev) })
	ev = e.At(2, func() { fired = true })
	e.Run()
	if fired {
		t.Error("event cancelled at t=1 still fired at t=2")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	e.At(1, nil)
}

func TestRunUntilHorizon(t *testing.T) {
	e := NewEngine()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4, 5} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	end := e.RunUntil(3)
	if end != 3 {
		t.Errorf("RunUntil(3) = %v, want 3", end)
	}
	if len(fired) != 3 {
		t.Errorf("fired %d events before horizon, want 3 (events at horizon fire)", len(fired))
	}
	// Resume to completion.
	end = e.Run()
	if end != 5 || len(fired) != 5 {
		t.Errorf("resume: end=%v fired=%d, want 5 and 5", end, len(fired))
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(1, func() { count++; e.Stop() })
	e.At(2, func() { count++ })
	end := e.Run()
	if count != 1 || end != 1 {
		t.Errorf("Stop: count=%d end=%v, want 1 and 1", count, end)
	}
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d after Stop, want 1", e.Pending())
	}
}

func TestStep(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(1, func() { count++ })
	e.At(2, func() { count++ })
	if !e.Step() || count != 1 || e.Now() != 1 {
		t.Errorf("first Step: count=%d now=%v", count, e.Now())
	}
	if !e.Step() || count != 2 || e.Now() != 2 {
		t.Errorf("second Step: count=%d now=%v", count, e.Now())
	}
	if e.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func TestEventsFired(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 17; i++ {
		e.At(float64(i), func() {})
	}
	e.Run()
	if e.EventsFired() != 17 {
		t.Errorf("EventsFired() = %d, want 17", e.EventsFired())
	}
}

// Property: for any random schedule (including duplicate times and nested
// scheduling), events observe a non-decreasing clock and all fire.
func TestClockMonotoneQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		last := math.Inf(-1)
		ok := true
		n := 0
		var schedule func(depth int)
		schedule = func(depth int) {
			count := 1 + rng.Intn(5)
			for i := 0; i < count; i++ {
				d := float64(rng.Intn(10))
				deeper := depth < 3 && rng.Intn(2) == 0
				e.After(d, func() {
					n++
					if e.Now() < last {
						ok = false
					}
					last = e.Now()
					if deeper {
						schedule(depth + 1)
					}
				})
			}
		}
		schedule(0)
		e.Run()
		return ok && n > 0 && e.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the engine is deterministic — identical schedules produce
// identical firing sequences.
func TestDeterminismQuick(t *testing.T) {
	run := func(seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var times []float64
		for i := 0; i < 50; i++ {
			d := float64(rng.Intn(20))
			e.After(d, func() { times = append(times, e.Now()) })
		}
		e.Run()
		return times
	}
	f := func(seed int64) bool {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestAfterTagOrdersLikeAfter: a tagged event takes its sequence number
// where After would, fires with its tag, and cancels like any event.
func TestAfterTagOrdersLikeAfter(t *testing.T) {
	e := NewEngine()
	var order []uint64
	fn := func(tag uint64) { order = append(order, tag) }
	e.After(2, func() { order = append(order, 100) })
	e.AfterTag(2, fn, 1)
	e.After(2, func() { order = append(order, 101) })
	e.AfterTag(1, fn, 2)
	e.Cancel(e.AfterTag(1, fn, 3))
	if end := e.Run(); end != 2 {
		t.Errorf("Run() = %v, want 2", end)
	}
	want := []uint64{2, 100, 1, 101}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if e.EventsFired() != 4 {
		t.Errorf("EventsFired = %d, want 4", e.EventsFired())
	}
}
