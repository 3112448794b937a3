package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestDeferSlotNeverFires: a slot counts as pending like an event, but
// resolving it fires nothing, leaves EventsFired alone and does not move
// the clock.
func TestDeferSlotNeverFires(t *testing.T) {
	e := NewEngine()
	e.At(3, func() {})
	e.Run()
	var got []uint64
	h := e.Defer(Handle{}, func(seq uint64) { got = append(got, seq) })
	if !e.Scheduled(h) || e.Pending() != 1 || e.MaxPending() != 1 {
		t.Fatalf("fresh slot: scheduled=%v pending=%d max=%d, want true, 1, 1", e.Scheduled(h), e.Pending(), e.MaxPending())
	}
	if end := e.Run(); end != 3 {
		t.Errorf("run ended at %g, want the slot's instant 3", end)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("resolve calls %v, want one with seq 1", got)
	}
	if e.EventsFired() != 1 || e.Pending() != 0 || e.Scheduled(h) {
		t.Errorf("after resolve: fired=%d pending=%d scheduled=%v, want 1, 0, false", e.EventsFired(), e.Pending(), e.Scheduled(h))
	}
}

// TestDeferOrdersAmongSameInstant: a slot resolves after every
// same-instant event scheduled before it was placed and before every one
// scheduled after; re-deferring a live slot re-takes a fresh sequence
// number, moving it behind events scheduled in between — without a second
// slot or a change to Pending.
func TestDeferOrdersAmongSameInstant(t *testing.T) {
	for _, redefer := range []bool{false, true} {
		t.Run(fmt.Sprintf("redefer=%v", redefer), func(t *testing.T) {
			e := NewEngine()
			var log []string
			var slot Handle
			resolve := func(seq uint64) { log = append(log, fmt.Sprintf("resolve@%d", seq)) }
			e.At(1, func() {
				log = append(log, "a")
				slot = e.Defer(slot, resolve)
				e.At(1, func() { log = append(log, "c") })
			})
			e.At(1, func() {
				log = append(log, "b")
				if redefer {
					pending := e.Pending()
					if again := e.Defer(slot, resolve); again != slot || e.Pending() != pending {
						t.Errorf("re-defer: handle changed or pending %d → %d", pending, e.Pending())
					}
				}
			})
			e.Run()
			want := "a b resolve@2 c"
			if redefer {
				want = "a b c resolve@4"
			}
			if got := strings.Join(log, " "); got != want {
				t.Errorf("order %q, want %q", got, want)
			}
			if e.EventsFired() != 3 || e.MaxPending() != 3 {
				t.Errorf("fired=%d max=%d, want 3, 3", e.EventsFired(), e.MaxPending())
			}
		})
	}
}

// TestDeferMovesLiveEvent: deferring an event's handle turns the event
// into the slot — its callback never runs — and AtSeq from the resolve
// ties the replacement exactly where the slot stood, ahead of later
// same-instant events.
func TestDeferMovesLiveEvent(t *testing.T) {
	e := NewEngine()
	var log []string
	var h Handle
	e.At(2, func() {
		h = e.At(9, func() { log = append(log, "stale") })
		h = e.Defer(h, func(seq uint64) {
			log = append(log, "resolve")
			h = e.AtSeq(e.Now(), seq, func() { log = append(log, "armed") })
		})
		e.At(2, func() { log = append(log, "later") })
	})
	if e.Pending() != 1 {
		t.Fatal("setup")
	}
	e.Run()
	if got := strings.Join(log, " "); got != "resolve armed later" {
		t.Errorf("order %q, want %q", got, "resolve armed later")
	}
	if e.EventsFired() != 3 || e.Now() != 2 || e.MaxPending() != 2 {
		t.Errorf("fired=%d now=%g max=%d, want 3, 2, 2", e.EventsFired(), e.Now(), e.MaxPending())
	}
}

// TestAtSeqUnissuedPanics: AtSeq only accepts sequence numbers the engine
// has handed out, so it can never jump ahead of future events.
func TestAtSeqUnissuedPanics(t *testing.T) {
	e := NewEngine()
	e.At(1, func() {})
	defer func() {
		if recover() == nil {
			t.Error("AtSeq with an unissued sequence number did not panic")
		}
	}()
	e.AtSeq(1, 1, func() {})
}

// TestResolveAndCancelSlot: Resolve runs a pending slot at once and is a
// no-op on anything else; a cancelled slot never resolves.
func TestResolveAndCancelSlot(t *testing.T) {
	e := NewEngine()
	calls := 0
	resolve := func(uint64) { calls++ }
	ev := e.At(1, func() {})
	e.Resolve(ev)
	e.Resolve(Handle{})
	h := e.Defer(Handle{}, resolve)
	e.Resolve(h)
	e.Resolve(h) // stale now
	if calls != 1 || e.Pending() != 1 || !e.Scheduled(ev) {
		t.Fatalf("Resolve: calls=%d pending=%d event scheduled=%v, want 1, 1, true", calls, e.Pending(), e.Scheduled(ev))
	}
	h = e.Defer(Handle{}, resolve)
	e.Cancel(h)
	e.Run()
	if calls != 1 || e.EventsFired() != 1 {
		t.Errorf("cancelled slot: calls=%d fired=%d, want 1, 1", calls, e.EventsFired())
	}
}

// TestStepSkipsSlots: Step resolves slots on its way to the next event and
// counts only the event; a queue holding nothing but a slot steps nothing.
func TestStepSkipsSlots(t *testing.T) {
	e := NewEngine()
	calls, fired := 0, 0
	e.Defer(Handle{}, func(uint64) { calls++ })
	e.At(1, func() { fired++ })
	if !e.Step() || calls != 1 || fired != 1 || e.EventsFired() != 1 {
		t.Fatalf("Step: ran slot %d, event %d, fired %d; want 1, 1, 1", calls, fired, e.EventsFired())
	}
	e.Defer(Handle{}, func(uint64) { calls++ })
	if e.Step() || calls != 2 || e.Pending() != 0 {
		t.Errorf("Step over a lone slot: ran=true or calls=%d pending=%d", calls, e.Pending())
	}
}

// TestDeferZeroAllocs: moving a live slot allocates nothing.
func TestDeferZeroAllocs(t *testing.T) {
	e := NewEngine()
	resolve := func(uint64) {}
	h := e.Defer(Handle{}, resolve)
	e.At(5, func() {})
	if avg := testing.AllocsPerRun(100, func() { h = e.Defer(h, resolve) }); avg != 0 {
		t.Fatalf("re-deferring a live slot allocated %.1f times, want 0", avg)
	}
}
