// Package sim implements the discrete-event simulation kernel the rest of
// the simulator is built on: a virtual clock, a cancellable event queue, and
// a run loop, plus Slab, the slot pool its events and the flow and storage
// layers' records live in.
//
// Determinism is a hard requirement (the accuracy evaluation compares runs
// bit-for-bit): events scheduled for the same instant fire in scheduling
// order, and nothing in the kernel consults wall-clock time or global
// randomness.
//
// Besides events the queue holds deferred slots (Engine.Defer): a decision
// that must be taken at the current instant, but only once, after every
// same-instant change ordered before it. The flow solver uses one to solve
// the network once per instant however many flows start, end or are
// cancelled there. A slot is pending like an event and takes a sequence
// number like one; when it reaches the head of the queue the run loop
// retires it without firing it or advancing the clock and calls its
// resolve function with that sequence number, which the resolver may hand
// to AtSeq so whatever it schedules ties exactly where the slot stood.
package sim

import (
	"fmt"
	"math"
	"slices"
)

// event is one slot of the engine's Slab: a queued event or deferred slot
// while issued, free otherwise. Exactly one callback field is set while it
// is queued; its time and sequence number live in its heap entry.
type event struct {
	fn      func()
	fnTag   func(tag uint64) // AfterTag callback, called with tag instead of fn
	resolve func(seq uint64) // non-nil marks a deferred slot (see Defer)
	tag     uint64
	pos     int32 // heap position while queued
}

// Handle identifies one scheduled occurrence of a pooled event slot: the
// slot's Ref. Slots are reused once an event fires or is cancelled, and
// operations on a stale handle are safe no-ops. The zero Handle behaves
// like an event that already fired: Engine.Scheduled reports false and
// Engine.Cancel is a no-op.
type Handle Ref

// entry is one element of the engine's binary min-heap: a queued slot
// under its (time, seq) key. It holds no pointer, so sifting writes none.
type entry struct {
	time float64 // virtual time at which the event fires, in seconds
	seq  uint64  // tie-breaker: same-time events fire in scheduling order
	slot int32
}

// before orders the heap by (time, seq), a strict total order: the pop
// sequence is the same for any correct heap.
func (a entry) before(b entry) bool {
	//bbvet:allow float-compare -- heap comparator tie-break: events at the bit-identical instant fall through to the scheduling-order tie-breaker; an epsilon would merge distinct instants
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// up fills the hole at j with x, moving x towards the root past every
// ancestor it pops before.
func (e *Engine) up(j int, x entry) {
	q, slots := e.queue, e.events
	for j > 0 {
		i := (j - 1) / 2 // parent
		p := q[i]
		if !x.before(p) {
			break
		}
		q[j] = p
		slots.At(p.slot).pos = int32(j)
		j = i
	}
	q[j] = x
	slots.At(x.slot).pos = int32(j)
}

// down fills the hole at i with x, moving x towards the leaves past every
// child that pops before it, and returns where x landed.
func (e *Engine) down(i int, x entry) int {
	q, slots := e.queue, e.events
	for {
		j := 2*i + 1
		if j >= len(q) {
			break
		}
		if r := j + 1; r < len(q) && q[r].before(q[j]) {
			j = r // the smaller child
		}
		c := q[j]
		if !c.before(x) {
			break
		}
		q[i] = c
		slots.At(c.slot).pos = int32(i)
		i = j
	}
	q[i] = x
	slots.At(x.slot).pos = int32(i)
	return i
}

// fix re-seats x, whose key changed or which replaces the element at
// position i.
func (e *Engine) fix(i int, x entry) {
	if e.down(i, x) == i && i > 0 {
		e.up(i, x)
	}
}

// remove takes the element at heap position i out of the queue.
func (e *Engine) remove(i int) {
	n := len(e.queue) - 1
	last := e.queue[n]
	e.queue = e.queue[:n]
	if i < n {
		e.fix(i, last)
	}
}

// Engine is a discrete-event simulation engine. The zero value is not ready
// for use; call NewEngine.
type Engine struct {
	now     float64
	queue   []entry // binary min-heap of the queued slots
	events  Slab[event]
	seq     uint64
	running bool
	stopped bool
	fired   uint64
	maxPend int
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// EventsFired returns the number of events executed so far. Useful for
// complexity assertions in tests.
func (e *Engine) EventsFired() uint64 { return e.fired }

// Pending returns the number of events currently scheduled, deferred slots
// included.
//
//bbvet:allow unreached -- observation hook the kernel and handle tests read
func (e *Engine) Pending() int { return len(e.queue) }

// MaxPending returns the event queue's high-water mark: the largest number
// of simultaneously scheduled events seen so far. Like EventsFired it is a
// deterministic cost metric — the observability layer reports it as the
// sim_queue_peak_events gauge.
func (e *Engine) MaxPending() int { return e.maxPend }

// Scheduled reports whether h's occurrence is still queued, as an event or
// a deferred slot: false once it fired, resolved or was cancelled, and for
// the zero Handle. A slot leaves the queue only to be retired at once, so
// a live handle means queued.
func (e *Engine) Scheduled(h Handle) bool { return e.events.Live(Ref(h)) != nil }

// Reserve makes room for n more pending events, so a caller that queues
// many at once (a campaign's submissions) grows the queue and slab once.
func (e *Engine) Reserve(n int) {
	e.queue = slices.Grow(e.queue, n)
	e.events.Grow(n)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a modeling bug, and silently clamping would
// corrupt causality.
func (e *Engine) At(t float64, fn func()) Handle {
	e.check(t, fn == nil)
	e.seq++
	h, ev := e.push(t, e.seq-1)
	ev.fn = fn
	return h
}

// After schedules fn to run d seconds from now. Negative delays panic.
func (e *Engine) After(d float64, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", d))
	}
	return e.At(e.now+d, fn)
}

// AfterTag schedules fn(tag) d seconds from now, exactly as After would
// schedule a closure. It serves callers with many concurrent timers and
// one callback, hoisted once — typically a method value: the tag says
// which of the caller's records the event is for (a slab slot, a task
// index), so scheduling allocates nothing per event.
func (e *Engine) AfterTag(d float64, fn func(tag uint64), tag uint64) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", d))
	}
	t := e.now + d
	e.check(t, fn == nil)
	e.seq++
	h, ev := e.push(t, e.seq-1)
	ev.fnTag = fn
	ev.tag = tag
	return h
}

// AtSeq schedules fn at absolute virtual time t under a sequence number
// already issued — the one a deferred slot hands its resolve function — so
// the event ties with same-instant events exactly as if it had been
// scheduled when that number was taken. It panics like At, and on a
// sequence number the engine has not issued yet.
func (e *Engine) AtSeq(t float64, seq uint64, fn func()) Handle {
	if seq >= e.seq {
		panic(fmt.Sprintf("sim: AtSeq with unissued sequence number %d", seq))
	}
	e.check(t, fn == nil)
	h, ev := e.push(t, seq)
	ev.fn = fn
	return h
}

// check panics on an event no model may schedule.
func (e *Engine) check(t float64, nilCallback bool) {
	if math.IsNaN(t) {
		panic("sim: scheduling at NaN time")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at t=%g before now=%g", t, e.now))
	}
	if nilCallback {
		panic("sim: scheduling nil callback")
	}
}

// push queues a free slot at (t, seq) and returns it for the caller to set
// its callback.
func (e *Engine) push(t float64, seq uint64) (Handle, *event) {
	r, ev := e.events.Alloc()
	e.queue = append(e.queue, entry{})
	e.up(len(e.queue)-1, entry{time: t, seq: seq, slot: r.slot})
	if len(e.queue) > e.maxPend {
		e.maxPend = len(e.queue)
	}
	return Handle(r), ev
}

// Defer places a deferred slot at the current instant under a fresh
// sequence number, or — when h is still pending, slot or event — moves h
// there instead, which allocates nothing and leaves Pending unchanged. The
// slot is resolved once, when it reaches the head of the queue: after
// every event ordered before it at this instant and before any ordered
// after it, the run loop retires it and calls resolve with its sequence
// number. A slot never fires, never counts in EventsFired and never moves
// the clock, but it does count in Pending and MaxPending, and Cancel
// removes it like an event.
func (e *Engine) Defer(h Handle, resolve func(seq uint64)) Handle {
	if resolve == nil {
		panic("sim: deferring nil resolve")
	}
	e.seq++
	ev := e.events.Live(Ref(h))
	if ev == nil {
		h, ev = e.push(e.now, e.seq-1)
		ev.resolve = resolve
		return h
	}
	ev.clear()
	ev.resolve = resolve
	e.fix(int(ev.pos), entry{time: e.now, seq: e.seq - 1, slot: h.slot})
	return h
}

// Resolve resolves h now if it is a pending deferred slot, exactly as the
// run loop would; anything else is a no-op. Readers of state a slot
// settles (the flow solver's rates) call it to see current values between
// events.
func (e *Engine) Resolve(h Handle) {
	ev := e.events.Live(Ref(h))
	if ev == nil || ev.resolve == nil {
		return
	}
	x := e.queue[ev.pos]
	e.remove(int(ev.pos))
	e.resolveSlot(x)
}

// resolveSlot retires a slot already taken out of the queue and runs its
// resolve function.
func (e *Engine) resolveSlot(x entry) {
	resolve := e.events.At(x.slot).resolve
	e.retire(x.slot)
	resolve(x.seq)
}

// clear drops the slot's callback, writing only the field that is set.
func (ev *event) clear() {
	switch {
	case ev.fn != nil:
		ev.fn = nil
	case ev.fnTag != nil:
		ev.fnTag = nil
	default:
		ev.resolve = nil
	}
}

// retire clears a popped or removed slot's callback and frees the slot,
// which invalidates every outstanding Handle to this occurrence at once:
// the slot can be reused immediately — even by a callback scheduled from
// inside the event's own fn.
func (e *Engine) retire(slot int32) {
	e.events.At(slot).clear()
	e.events.Free(slot)
}

// Cancel removes a pending event from the queue. Cancelling a handle whose
// event already fired or was already cancelled is a no-op — the generation
// check makes stale handles harmless even after the slot has been reissued
// to an unrelated caller.
func (e *Engine) Cancel(h Handle) {
	ev := e.events.Live(Ref(h))
	if ev == nil {
		return
	}
	e.remove(int(ev.pos))
	e.retire(h.slot)
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in time order until the queue drains or Stop is
// called. It returns the final virtual time.
func (e *Engine) Run() float64 {
	return e.RunUntil(math.Inf(1))
}

// RunUntil executes events in time order until the queue drains, Stop is
// called, or the next event would fire strictly after horizon. Events at
// exactly the horizon still fire, and deferred slots are resolved as they
// reach the head. It returns the final virtual time (which never exceeds
// the horizon).
func (e *Engine) RunUntil(horizon float64) float64 {
	if e.running {
		panic("sim: Run re-entered")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()

	for len(e.queue) > 0 && !e.stopped {
		next := e.queue[0]
		if next.time > horizon {
			break
		}
		if next.time < e.now {
			panic("sim: event queue time went backwards")
		}
		e.next(next)
	}
	if !math.IsInf(horizon, 1) && e.now < horizon && len(e.queue) > 0 && !e.stopped {
		// We stopped because the next event is past the horizon; the clock
		// still advances to the horizon so callers can resume later.
		e.now = horizon
	}
	return e.now
}

// next pops the head x of the queue and resolves it if it is a deferred
// slot, or else fires it: advances the clock, retires the slot and runs
// its callback. It reports whether an event fired.
func (e *Engine) next(x entry) bool {
	e.remove(0)
	ev := e.events.At(x.slot)
	if ev.resolve != nil {
		e.resolveSlot(x)
		return false
	}
	e.now = x.time
	fn, fnTag, tag := ev.fn, ev.fnTag, ev.tag
	e.retire(x.slot)
	e.fired++
	if fnTag != nil {
		fnTag(tag)
		return true
	}
	fn()
	return true
}

// Step executes exactly the next event, if any, and reports whether one
// ran. Deferred slots ahead of it are resolved on the way and do not count
// as the step.
//
//bbvet:allow unreached -- observation hook the kernel and handle tests read
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		if e.next(e.queue[0]) {
			return true
		}
	}
	return false
}
