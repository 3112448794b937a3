package sim

import (
	"math"
	"math/rand"
	"testing"
)

// refEvent is one pending occurrence in the reference queue.
type refEvent struct {
	t   float64
	seq uint64
	id  int
}

// refQueue is the obviously correct event queue: an unordered slice
// scanned for the (Time, seq) minimum.
type refQueue struct {
	pending []refEvent
	live    map[int]bool // ids in pending
	seq     uint64
}

func (q *refQueue) add(t float64, id int) {
	q.pending = append(q.pending, refEvent{t: t, seq: q.seq, id: id})
	q.live[id] = true
	q.seq++
}

func (q *refQueue) minIndex() int {
	best := -1
	for i, ev := range q.pending {
		if best < 0 || ev.t < q.pending[best].t ||
			(math.Float64bits(ev.t) == math.Float64bits(q.pending[best].t) && ev.seq < q.pending[best].seq) {
			best = i
		}
	}
	return best
}

func (q *refQueue) popMin() (refEvent, bool) {
	i := q.minIndex()
	if i < 0 {
		return refEvent{}, false
	}
	ev := q.pending[i]
	q.pending = append(q.pending[:i], q.pending[i+1:]...)
	delete(q.live, ev.id)
	return ev, true
}

func (q *refQueue) remove(id int) {
	for i, ev := range q.pending {
		if ev.id == id {
			q.pending = append(q.pending[:i], q.pending[i+1:]...)
			delete(q.live, id)
			return
		}
	}
}

// TestEventHeapMatchesReference drives the engine with seeded random
// sequences of At, After, Cancel (of live, fired, cancelled and zero
// handles), Step and RunUntil, mirrored onto refQueue. Every firing event
// checks that it is the reference's (Time, seq) minimum at the engine's
// clock; after every operation the pending count and every handle's
// Scheduled state must agree with the reference. Times sit on a coarse
// grid so same-instant ties are common, and some callbacks schedule
// follow-ups, so events are pushed from inside the run loop too.
func TestEventHeapMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		ref := &refQueue{live: map[int]bool{}}
		var handles []Handle
		fired := 0
		delay := func() float64 {
			if rng.Intn(4) == 0 {
				return rng.Float64() * 10
			}
			return float64(rng.Intn(6))
		}
		var schedule func(d float64)
		schedule = func(d float64) {
			id, at := len(handles), e.Now()+d
			followUp := -1.0
			if rng.Intn(5) == 0 {
				followUp = delay()
			}
			fn := func() {
				want, ok := ref.popMin()
				if !ok || want.id != id || math.Float64bits(want.t) != math.Float64bits(e.Now()) {
					t.Fatalf("seed %d: fired event %d at t=%g, reference minimum is %+v (ok=%v)", seed, id, e.Now(), want, ok)
				}
				fired++
				if followUp >= 0 {
					schedule(followUp)
				}
			}
			handles = append(handles, Handle{})
			ref.add(at, id)
			if rng.Intn(2) == 0 {
				handles[id] = e.At(at, fn)
			} else {
				handles[id] = e.After(d, fn)
			}
		}
		for op := 0; op < 400; op++ {
			switch k := rng.Intn(10); {
			case k < 4:
				schedule(delay())
			case k < 6:
				switch {
				case rng.Intn(8) == 0:
					e.Cancel(Handle{})
				case len(handles) > 0:
					id := rng.Intn(len(handles))
					e.Cancel(handles[id])
					ref.remove(id)
				}
			case k < 8:
				before := fired
				ran := e.Step()
				if ran != (fired == before+1) || fired > before+1 {
					t.Fatalf("seed %d op %d: Step reported %v after %d firings", seed, op, ran, fired-before)
				}
			default:
				horizon := e.Now() + 2*delay()
				end := e.RunUntil(horizon)
				if i := ref.minIndex(); i >= 0 {
					if ref.pending[i].t <= horizon || end != horizon {
						t.Fatalf("seed %d op %d: RunUntil(%g) stopped at %g with %+v pending", seed, op, horizon, end, ref.pending[i])
					}
				}
			}
			if e.Pending() != len(ref.pending) {
				t.Fatalf("seed %d op %d: engine has %d pending, reference %d", seed, op, e.Pending(), len(ref.pending))
			}
			for id, h := range handles {
				if e.Scheduled(h) != ref.live[id] {
					t.Fatalf("seed %d op %d: handle %d Scheduled()=%v, reference pending=%v", seed, op, id, e.Scheduled(h), ref.live[id])
				}
			}
		}
		e.Run()
		if len(ref.pending) != 0 || e.Pending() != 0 {
			t.Fatalf("seed %d: %d reference events left after Run", seed, len(ref.pending))
		}
	}
}
