package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// This file keeps the kernel's earlier queue — pooled *ptrEvent structs in a
// []*ptrEvent binary heap, handles that pair the pointer with a generation —
// as a reference, and checks the slab queue against it.

type ptrEvent struct {
	time    float64
	fn      func()
	fnTag   func(tag uint64)
	tag     uint64
	resolve func(seq uint64)
	seq     uint64
	idx     int
	gen     uint64
}

type ptrHandle struct {
	ev  *ptrEvent
	gen uint64
}

func (h ptrHandle) live() *ptrEvent {
	if h.ev == nil || h.ev.gen != h.gen || h.ev.idx < 0 {
		return nil
	}
	return h.ev
}

type ptrHeap []*ptrEvent

func (h ptrHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h ptrHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

func (h ptrHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

func (h ptrHeap) down(i0, n int) bool {
	i := i0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}

func (h ptrHeap) fix(i int) {
	if !h.down(i, len(h)) {
		h.up(i)
	}
}

func (h *ptrHeap) remove(i int) *ptrEvent {
	old := *h
	n := len(old) - 1
	if n != i {
		old.swap(i, n)
		if !old.down(i, n) {
			old.up(i)
		}
	}
	ev := old[n]
	old[n] = nil
	ev.idx = -1
	*h = old[:n]
	return ev
}

// ptrEngine is the reference kernel: the same API over ptrHeap.
type ptrEngine struct {
	now   float64
	queue ptrHeap
	free  []*ptrEvent
	seq   uint64
	fired uint64
}

func (e *ptrEngine) push(t float64, seq uint64) *ptrEvent {
	var ev *ptrEvent
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = &ptrEvent{}
	}
	ev.time, ev.seq = t, seq
	ev.idx = len(e.queue)
	e.queue = append(e.queue, ev)
	e.queue.up(ev.idx)
	return ev
}

func handleOf(ev *ptrEvent) ptrHandle { return ptrHandle{ev: ev, gen: ev.gen} }

func (e *ptrEngine) At(t float64, fn func()) ptrHandle {
	e.seq++
	ev := e.push(t, e.seq-1)
	ev.fn = fn
	return handleOf(ev)
}

func (e *ptrEngine) AfterTag(d float64, fn func(uint64), tag uint64) ptrHandle {
	e.seq++
	ev := e.push(e.now+d, e.seq-1)
	ev.fnTag, ev.tag = fn, tag
	return handleOf(ev)
}

func (e *ptrEngine) AtSeq(t float64, seq uint64, fn func()) ptrHandle {
	ev := e.push(t, seq)
	ev.fn = fn
	return handleOf(ev)
}

func (e *ptrEngine) Defer(h ptrHandle, resolve func(uint64)) ptrHandle {
	e.seq++
	ev := h.live()
	if ev == nil {
		ev = e.push(e.now, e.seq-1)
		ev.resolve = resolve
		return handleOf(ev)
	}
	ev.time, ev.seq = e.now, e.seq-1
	ev.fn, ev.fnTag, ev.resolve = nil, nil, resolve
	e.queue.fix(ev.idx)
	return h
}

func (e *ptrEngine) retire(ev *ptrEvent) {
	ev.gen++
	ev.fn, ev.fnTag, ev.resolve = nil, nil, nil
	ev.idx = -1
	e.free = append(e.free, ev)
}

func (e *ptrEngine) resolveSlot(ev *ptrEvent) {
	resolve, seq := ev.resolve, ev.seq
	e.retire(ev)
	resolve(seq)
}

func (e *ptrEngine) Resolve(h ptrHandle) {
	if ev := h.live(); ev != nil && ev.resolve != nil {
		e.queue.remove(ev.idx)
		e.resolveSlot(ev)
	}
}

func (e *ptrEngine) Cancel(h ptrHandle) {
	if ev := h.live(); ev != nil {
		e.queue.remove(ev.idx)
		e.retire(ev)
	}
}

func (e *ptrEngine) next() bool {
	ev := e.queue.remove(0)
	if ev.resolve != nil {
		e.resolveSlot(ev)
		return false
	}
	e.now = ev.time
	fn, fnTag, tag := ev.fn, ev.fnTag, ev.tag
	e.retire(ev)
	e.fired++
	if fnTag != nil {
		fnTag(tag)
	} else {
		fn()
	}
	return true
}

func (e *ptrEngine) Step() bool {
	for len(e.queue) > 0 {
		if e.next() {
			return true
		}
	}
	return false
}

func (e *ptrEngine) RunUntil(horizon float64) float64 {
	for len(e.queue) > 0 && e.queue[0].time <= horizon {
		e.next()
	}
	if !math.IsInf(horizon, 1) && e.now < horizon && len(e.queue) > 0 {
		e.now = horizon
	}
	return e.now
}

// kernel is what the differential test needs of a queue. Handles are
// named by their index in the world's handle list; -1 is the zero Handle.
type kernel interface {
	now() float64
	pending() int
	fired() uint64
	at(t float64, fn func()) int
	afterTag(d float64, fn func(uint64), tag uint64) int
	atSeq(t float64, seq uint64, fn func()) int
	deferSlot(h int, resolve func(uint64)) int
	resolve(h int)
	cancel(h int)
	scheduled(h int) bool
	step() bool
	runUntil(horizon float64) float64
}

type slabKernel struct {
	e  *Engine
	hs []Handle
}

func (k *slabKernel) h(i int) Handle {
	if i < 0 {
		return Handle{}
	}
	return k.hs[i]
}

func (k *slabKernel) add(h Handle) int { k.hs = append(k.hs, h); return len(k.hs) - 1 }
func (k *slabKernel) now() float64     { return k.e.Now() }
func (k *slabKernel) pending() int     { return k.e.Pending() }
func (k *slabKernel) fired() uint64    { return k.e.EventsFired() }
func (k *slabKernel) at(t float64, fn func()) int {
	return k.add(k.e.At(t, fn))
}
func (k *slabKernel) afterTag(d float64, fn func(uint64), tag uint64) int {
	return k.add(k.e.AfterTag(d, fn, tag))
}
func (k *slabKernel) atSeq(t float64, seq uint64, fn func()) int {
	return k.add(k.e.AtSeq(t, seq, fn))
}
func (k *slabKernel) deferSlot(h int, r func(uint64)) int { return k.add(k.e.Defer(k.h(h), r)) }
func (k *slabKernel) resolve(h int)                       { k.e.Resolve(k.h(h)) }
func (k *slabKernel) cancel(h int)                        { k.e.Cancel(k.h(h)) }
func (k *slabKernel) scheduled(h int) bool                { return k.e.Scheduled(k.h(h)) }
func (k *slabKernel) step() bool                          { return k.e.Step() }
func (k *slabKernel) runUntil(t float64) float64          { return k.e.RunUntil(t) }

type ptrKernel struct {
	e  *ptrEngine
	hs []ptrHandle
}

func (k *ptrKernel) h(i int) ptrHandle {
	if i < 0 {
		return ptrHandle{}
	}
	return k.hs[i]
}

func (k *ptrKernel) add(h ptrHandle) int { k.hs = append(k.hs, h); return len(k.hs) - 1 }
func (k *ptrKernel) now() float64        { return k.e.now }
func (k *ptrKernel) pending() int        { return len(k.e.queue) }
func (k *ptrKernel) fired() uint64       { return k.e.fired }
func (k *ptrKernel) at(t float64, fn func()) int {
	return k.add(k.e.At(t, fn))
}
func (k *ptrKernel) afterTag(d float64, fn func(uint64), tag uint64) int {
	return k.add(k.e.AfterTag(d, fn, tag))
}
func (k *ptrKernel) atSeq(t float64, seq uint64, fn func()) int {
	return k.add(k.e.AtSeq(t, seq, fn))
}
func (k *ptrKernel) deferSlot(h int, r func(uint64)) int { return k.add(k.e.Defer(k.h(h), r)) }
func (k *ptrKernel) resolve(h int)                       { k.e.Resolve(k.h(h)) }
func (k *ptrKernel) cancel(h int)                        { k.e.Cancel(k.h(h)) }
func (k *ptrKernel) scheduled(h int) bool                { return k.h(h).live() != nil }
func (k *ptrKernel) step() bool                          { return k.e.Step() }
func (k *ptrKernel) runUntil(t float64) float64          { return k.e.RunUntil(t) }

// mix is splitmix64: callbacks draw their choices from (seed, id) rather
// than a shared generator, so both kernels' callbacks make the same
// choices whichever kernel runs first.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// world drives one kernel through a script and logs what fires.
type world struct {
	k    kernel
	seed uint64
	log  []string
	ids  int
}

// delay maps r onto a coarse grid, so same-instant ties are common, with
// an occasional off-grid value.
func delay(r uint64) float64 {
	if r%4 == 0 {
		return float64(r>>8%1000) / 100
	}
	return float64(r >> 8 % 5)
}

// schedule queues event id by one of At, AfterTag and, with an issued
// sequence number, AtSeq. When it fires it logs itself and, as its
// (seed, id) draw says, schedules a follow-up, defers a slot, or cancels
// or resolves an earlier handle — so the kernels are also driven from
// inside the run loop.
func (w *world) schedule(r uint64, seq uint64, atSeq bool) int {
	id := w.ids
	w.ids++
	act := mix(w.seed<<32 | uint64(id))
	fire := func() {
		w.log = append(w.log, fmt.Sprintf("e%d@%g", id, w.k.now()))
		w.act(act)
	}
	d := delay(r)
	switch {
	case atSeq:
		return w.k.atSeq(w.k.now()+d, seq, fire)
	case r>>40%2 == 0:
		return w.k.at(w.k.now()+d, fire)
	default:
		return w.k.afterTag(d, func(tag uint64) {
			w.log = append(w.log, fmt.Sprintf("t%d", tag))
			fire()
		}, uint64(id))
	}
}

// deferSlot defers handle h (-1 for a fresh slot). Its resolve logs the
// sequence number and, as r says, re-arms at that number with AtSeq.
func (w *world) deferSlot(h int, r uint64) int {
	return w.k.deferSlot(h, func(seq uint64) {
		w.log = append(w.log, fmt.Sprintf("r%d@%g", seq, w.k.now()))
		if r%3 != 0 {
			w.schedule(mix(r), seq, true)
		}
	})
}

func (w *world) act(r uint64) {
	switch r % 8 {
	case 0, 1:
		w.schedule(mix(r), 0, false)
	case 2:
		w.deferSlot(-1, mix(r))
	case 3:
		w.k.cancel(int(r>>8%uint64(w.ids)) - 1)
	case 4:
		w.k.resolve(int(r>>8%uint64(w.ids)) - 1)
	}
}

// TestSlabMatchesPointerHeap drives the slab queue and the pointer-heap
// reference with the same seeded random scripts of At, AfterTag, AtSeq,
// Defer (fresh and of live, stale and zero handles), Resolve, Cancel, Step
// and RunUntil, with callbacks that do the same from inside the run loop.
// After every operation the two must have fired the same events and
// resolved the same slots in the same order at the same instants, agree
// on the clock, Pending and EventsFired, and answer Scheduled alike for
// every handle ever issued and the zero Handle.
func TestSlabMatchesPointerHeap(t *testing.T) {
	for seed := uint64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		a := &world{k: &slabKernel{e: NewEngine()}, seed: seed}
		b := &world{k: &ptrKernel{e: &ptrEngine{}}, seed: seed}
		handles := 0
		for op := 0; op < 300; op++ {
			r := rng.Uint64()
			h := rng.Intn(handles+1) - 1 // any issued handle, or the zero Handle
			for _, w := range []*world{a, b} {
				switch r % 10 {
				case 0, 1, 2:
					w.schedule(mix(r), 0, false)
				case 3:
					w.deferSlot(-1, mix(r))
				case 4:
					w.deferSlot(h, mix(r))
				case 5:
					w.k.resolve(h)
				case 6:
					w.k.cancel(h)
				case 7, 8:
					w.k.step()
				default:
					w.k.runUntil(w.k.now() + 2*delay(mix(r)))
				}
			}
			if got, want := strings.Join(a.log, " "), strings.Join(b.log, " "); got != want {
				t.Fatalf("seed %d op %d: slab log\n%s\nreference log\n%s", seed, op, got, want)
			}
			if a.k.now() != b.k.now() || a.k.pending() != b.k.pending() || a.k.fired() != b.k.fired() {
				t.Fatalf("seed %d op %d: slab now=%g pending=%d fired=%d, reference %g, %d, %d", seed, op,
					a.k.now(), a.k.pending(), a.k.fired(), b.k.now(), b.k.pending(), b.k.fired())
			}
			handles = len(a.k.(*slabKernel).hs)
			if n := len(b.k.(*ptrKernel).hs); n != handles {
				t.Fatalf("seed %d op %d: %d slab handles, %d reference", seed, op, handles, n)
			}
			for i := -1; i < handles; i++ {
				if a.k.scheduled(i) != b.k.scheduled(i) {
					t.Fatalf("seed %d op %d: handle %d Scheduled=%v, reference %v", seed, op, i, a.k.scheduled(i), b.k.scheduled(i))
				}
			}
		}
		a.k.runUntil(math.Inf(1))
		b.k.runUntil(math.Inf(1))
		if strings.Join(a.log, " ") != strings.Join(b.log, " ") || a.k.pending() != 0 || b.k.pending() != 0 {
			t.Fatalf("seed %d: final drain differs", seed)
		}
	}
}
