// Package sim implements the discrete-event simulation kernel the rest of
// the simulator is built on: a virtual clock, a cancellable event queue, and
// a run loop.
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
)

// Event is a scheduled callback. Events are pooled: once an event fires or
// is cancelled it returns to the engine's free list and may be reused by a
// later At/After. Callers therefore never hold *Event directly — scheduling
// returns a Handle that pairs the pointer with the generation it was issued
// for, so operations on a stale handle are safe no-ops.
type Event struct {
	Time    float64 // virtual time at which the event fires, in seconds
	fn      func()
	fnTag   func(tag uint64) // AfterTag callback, called with tag instead of fn
	tag     uint64
	resolve func(seq uint64) // non-nil marks a deferred slot (see Defer)
	seq     uint64           // tie-breaker: same-time events fire in scheduling order
	idx     int              // heap index, -1 once removed
	gen     uint64           // bumped on retirement; invalidates outstanding Handles
}

// Handle identifies one scheduled occurrence of a pooled event. The zero
// Handle is valid and behaves like an event that already fired: Cancelled
// reports true and Engine.Cancel is a no-op.
type Handle struct {
	ev  *Event
	gen uint64
}

// Cancelled reports whether the handle's occurrence was removed from the
// queue before firing (or has already fired). A zero Handle is Cancelled.
func (h Handle) Cancelled() bool {
	return h.ev == nil || h.ev.gen != h.gen || h.ev.idx < 0
}

// eventHeap is a binary min-heap of pending events ordered by (Time, seq),
// a strict total order: the pop sequence is the same for any correct heap.
// The sifts are typed rather than container/heap's interface dispatch, and
// keep every event's idx equal to its slot so Cancel can remove it.
type eventHeap []*Event

func (h eventHeap) less(i, j int) bool {
	//bbvet:allow float-compare -- heap comparator tie-break: events at the bit-identical instant fall through to the scheduling-order tie-breaker; an epsilon would merge distinct instants
	if h[i].Time != h[j].Time {
		return h[i].Time < h[j].Time
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

func (h eventHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

// down sifts slot i0 towards the leaves of h[:n] and reports whether it
// moved.
func (h eventHeap) down(i0, n int) bool {
	i := i0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && h.less(r, j) {
			j = r // the smaller child
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}

func (h *eventHeap) push(ev *Event) {
	ev.idx = len(*h)
	*h = append(*h, ev)
	h.up(ev.idx)
}

// pop removes and returns the earliest event.
func (h *eventHeap) pop() *Event {
	return h.remove(0)
}

// fix restores heap order after the key of the event at slot i changed.
func (h eventHeap) fix(i int) {
	if !h.down(i, len(h)) {
		h.up(i)
	}
}

// remove takes the event at slot i out of the heap and returns it with
// idx -1.
func (h *eventHeap) remove(i int) *Event {
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

// Engine is a discrete-event simulation engine. The zero value is not ready
// for use; call NewEngine.
type Engine struct {
	now     float64
	queue   eventHeap
	free    []*Event // retired events awaiting reuse (O(peak pending))
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

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a modeling bug, and silently clamping would
// corrupt causality.
func (e *Engine) At(t float64, fn func()) Handle {
	e.check(t, fn == nil)
	e.seq++
	return e.push(t, e.seq-1, fn, nil)
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
	h := e.push(t, e.seq-1, nil, nil)
	h.ev.fnTag = fn
	h.ev.tag = tag
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
	return e.push(t, seq, fn, nil)
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

// push queues a pooled event or slot at (t, seq).
func (e *Engine) push(t float64, seq uint64, fn func(), resolve func(uint64)) Handle {
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{}
	}
	ev.Time = t
	ev.fn = fn
	ev.resolve = resolve
	ev.seq = seq
	e.queue.push(ev)
	if len(e.queue) > e.maxPend {
		e.maxPend = len(e.queue)
	}
	return Handle{ev: ev, gen: ev.gen}
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
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.idx < 0 {
		return e.push(e.now, e.seq-1, nil, resolve)
	}
	ev.Time = e.now
	ev.fn = nil
	ev.fnTag = nil
	ev.resolve = resolve
	ev.seq = e.seq - 1
	e.queue.fix(ev.idx)
	return h
}

// Resolve resolves h now if it is a pending deferred slot, exactly as the
// run loop would; anything else is a no-op. Readers of state a slot
// settles (the flow solver's rates) call it to see current values between
// events.
func (e *Engine) Resolve(h Handle) {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.idx < 0 || ev.resolve == nil {
		return
	}
	e.queue.remove(ev.idx)
	e.resolveSlot(ev)
}

// resolveSlot retires a slot already taken out of the queue and runs its
// resolve function.
func (e *Engine) resolveSlot(ev *Event) {
	resolve, seq := ev.resolve, ev.seq
	e.retire(ev)
	resolve(seq)
}

// retire returns a popped or removed event to the free list. Bumping the
// generation first invalidates every outstanding Handle to this occurrence,
// so the struct can be reused immediately — even by a callback scheduled
// from inside the event's own fn.
func (e *Engine) retire(ev *Event) {
	ev.gen++
	ev.fn = nil
	ev.fnTag = nil
	ev.resolve = nil
	ev.idx = -1
	e.free = append(e.free, ev)
}

// Cancel removes a pending event from the queue. Cancelling a handle whose
// event already fired or was already cancelled is a no-op — the generation
// check makes stale handles harmless even after the pooled Event struct has
// been reissued to an unrelated caller.
func (e *Engine) Cancel(h Handle) {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.idx < 0 {
		return
	}
	e.queue.remove(ev.idx)
	e.retire(ev)
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
		if next.Time > horizon {
			break
		}
		e.queue.pop()
		if next.Time < e.now {
			panic("sim: event queue time went backwards")
		}
		if next.resolve != nil {
			e.resolveSlot(next)
			continue
		}
		e.fire(next)
	}
	if !math.IsInf(horizon, 1) && e.now < horizon && len(e.queue) > 0 && !e.stopped {
		// We stopped because the next event is past the horizon; the clock
		// still advances to the horizon so callers can resume later.
		e.now = horizon
	}
	return e.now
}

// fire advances the clock to a popped event, retires it and runs its
// callback.
func (e *Engine) fire(ev *Event) {
	e.now = ev.Time
	fn, fnTag, tag := ev.fn, ev.fnTag, ev.tag
	e.retire(ev)
	e.fired++
	if fnTag != nil {
		fnTag(tag)
		return
	}
	fn()
}

// Step executes exactly the next event, if any, and reports whether one
// ran. Deferred slots ahead of it are resolved on the way and do not count
// as the step.
//
//bbvet:allow unreached -- observation hook the kernel and handle tests read
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		next := e.queue.pop()
		if next.resolve != nil {
			e.resolveSlot(next)
			continue
		}
		e.fire(next)
		return true
	}
	return false
}
