// Package flow implements the fluid resource-sharing model used for all
// network, disk, and (optionally) compute activity in the simulator.
//
// The model is the one SimGrid validated for flow-level network simulation:
// each active transfer ("flow") traverses a path of capacity-constrained
// resources, and the instantaneous rates of all concurrent flows are the
// max-min fair allocation computed by progressive filling. A flow may also
// carry a per-flow rate cap, which models POSIX single-stream throughput —
// the reason the paper observes saturation "although usage is far below the
// peak" of the burst buffer.
//
// Rates only matter once virtual time advances, so the network is solved
// once per simulated instant: every change to the active flows or to a
// capacity settles in-flight transfers and moves the network's single
// pending sim event to a deferred slot at the current instant
// (sim.Engine.Defer). The kernel resolves the slot after the instant's
// last change ordered before it, and the resolve recomputes the rates and
// arms the next-completion event under the slot's sequence number — so
// events fire exactly as if every change had re-solved on the spot.
// Between instants every flow progresses linearly, so the simulation cost
// is independent of transfer sizes. Flows that share one path slice and
// one rate cap are symmetric under max-min fairness, so the solver works
// on these classes rather than on flows: a flow joins its class when it
// activates and leaves it when it ends, each resource counts the active
// flows crossing it as they join and leave, and progressive filling runs
// its rounds over the live classes and the resources they cross (idle
// resources cost nothing). The next completion falls out of the solve as a
// side product. Flows and classes live in sim.Slab pools on the Network,
// flows reached through generation-counted Handles, and all scratch is
// pooled there too, so the steady state allocates nothing.
package flow

import (
	"fmt"
	"math"

	"bbwfsim/internal/sim"
)

// Resource is a capacity-constrained entity (network link, disk, ...).
// Concurrent flows crossing a resource share its capacity max-min fairly.
type Resource struct {
	name     string
	capacity float64 // units per second (> 0)
	net      *Network

	processed float64 // units carried by flows that have ended

	// Kept up to date as flows join and leave: the active flows crossing
	// the resource, and its position in Network.touched while there are
	// any.
	count int
	at    int

	// Solve scratch, owned by recompute: the capacity left and the flows
	// not yet frozen this round, their equal share, and how many frozen
	// flows the resource carries at which rate (mixed once two frozen
	// flows differ in rate). dirty marks a resource whose frozen set grew
	// in the current round.
	avail      float64
	unfrozen   int
	share      float64
	nFrozen    int
	frozenRate float64
	mixed      bool
	dirty      bool
}

// Capacity returns the resource's capacity in units per second.
func (r *Resource) Capacity() float64 { return r.capacity }

// Processed returns the total number of units this resource has carried:
// every ended flow's settled amount, plus the progress of the flows still
// crossing it as of the last settle.
//
//bbvet:allow unreached -- observation hook the flow oracle and handle tests read
func (r *Resource) Processed() float64 {
	n := r.net
	p := r.processed
	for _, slot := range n.active {
		f := n.flows.At(slot)
		if crosses(n.classes.At(f.class).path, r) {
			p += f.amount - f.remaining
		}
	}
	return p
}

// Handle identifies one flow of a Network: the sim.Ref of its slot in the
// network's flow pool, whose slots are reused once a flow completes or is
// cancelled — the scheme sim.Handle uses for pooled events. A handle whose
// flow has ended is stale: Cancel on it is a no-op and Rate zero, even
// after the slot was reissued to another flow. The zero Handle behaves
// like an ended flow.
type Handle sim.Ref

// Completer is told when a flow completes. The tag is the one the flow was
// started with, so one long-lived completer — a pointer, stored in an
// interface without allocating — can serve every flow it starts.
type Completer interface {
	FlowDone(tag uint64)
}

// flowSlot is one entry of the flow pool: a flow while issued, free
// otherwise.
type flowSlot struct {
	path      []*Resource // as given to StartFlow; its class holds the set
	done      Completer
	tag       uint64
	remaining float64
	amount    float64
	rateCap   float64    // +Inf when uncapped
	latEv     sim.Handle // pending latency activation
	class     int32      // the class the flow belongs to while active
	active    bool
}

// class is one entry of the class pool: flows that share a path slice and a
// rate cap.
// Max-min fairness treats such flows alike, so they freeze in the same
// round at the same rate and the solver handles them as one.
type class struct {
	key     *(*Resource) // &path[0] of the flows' path slice, nil when empty
	keyLen  int
	rateCap float64
	path    []*Resource // the flows' path, deduplicated into buf if it repeats
	buf     []*Resource // the slot's own storage for deduplicated paths
	n       int         // active flows in the class
	at      int         // position in Network.inUse
	rate    float64
	// minRem is the least remaining amount of a member, kept up to date
	// by the passes that move or add members (settle, onCompletion,
	// join); only a cancel of the least member leaves it stale.
	minRem float64
	frozen bool // solve scratch
}

// Options tunes a flow started with StartFlow.
type Options struct {
	// RateCap bounds the flow's rate regardless of resource availability.
	// Zero (or negative) means uncapped.
	RateCap float64
	// Latency delays the flow's activation by a fixed duration. During the
	// latency the flow holds no resources.
	Latency float64
}

// Network owns a set of resources and the active flows crossing them.
type Network struct {
	eng *sim.Engine
	// flows is the pool every flow lives in, so the steady state
	// allocates no flow at all.
	flows sim.Slab[flowSlot]
	// active lists the slots of the flows holding resources, in activation
	// order. Compacting int32 slot indices pays no GC write barrier, unlike
	// a slice of pointers.
	active []int32
	// classes is the class pool; inUse lists the slots of the classes with
	// active flows.
	classes sim.Slab[class]
	inUse   []int32
	// touched lists the resources crossed by at least one active flow,
	// kept up to date as flows join and leave.
	touched []*Resource
	settled float64    // virtual time of the last settle
	changed float64    // virtual time of the last change, -Inf before any
	nextEv  sim.Handle // the deferred solve, or else the next completion
	// stale marks the classes' minRem folds out of date: a cancelled flow
	// held its class's least remaining amount. The next recompute rescans
	// the active flows, and rescans counts how often that happened.
	stale   bool
	rescans uint64
	// stalled marks a completion that found the clock unmoved and no flow
	// finished: a flow's residue is above its completion tolerance but its
	// delay at its rate is under half an ulp of the clock, so now+delay is
	// now. The next resolve arms one ulp later instead (see resolve).
	stalled bool

	// Hot-path scratch, reused across recomputes so the steady state
	// allocates nothing (asserted by TestRecomputeZeroAllocs):
	finished     []sim.Ref        // completion batch, collected per event
	minDt        float64          // next completion delay, folded into recompute
	completionFn func()           // bound n.onCompletion, hoisted once
	resolveFn    func(seq uint64) // bound n.resolve, hoisted once
	activateFn   func(tag uint64) // bound n.activateTag, hoisted once
	instantFn    func(tag uint64) // bound n.completeTag, hoisted once

	stats Stats // cumulative solver counters, read post-run
}

// Stats are the solver's cumulative work counters: how many rate
// recomputes ran, how many progressive-filling rounds they took in total,
// how many flows were started, and at how many distinct simulated instants
// the flows or capacities changed — the bound deferred solving keeps
// recomputes to, short of a completion falling due at the very instant it
// was solved. They are plain integers bumped on the hot path — no
// collector indirection, no allocation — so instrumentation keeps the
// zero-steady-state-allocation contract (TestRecomputeZeroAllocs) intact;
// the observability layer (internal/metrics) reads them once per run
// through Stats.
type Stats struct {
	Recomputes      uint64
	FreezeRounds    uint64
	FlowsStarted    uint64
	ChangedInstants uint64
}

// NewNetwork returns an empty network bound to the engine.
func NewNetwork(eng *sim.Engine) *Network {
	if eng == nil {
		panic("flow: nil engine")
	}
	n := &Network{eng: eng, settled: eng.Now(), changed: math.Inf(-1), minDt: math.Inf(1)}
	n.completionFn = n.onCompletion
	n.resolveFn = n.resolve
	n.activateFn = n.activateTag
	n.instantFn = n.completeTag
	return n
}

// NewResource registers a resource with the given capacity (> 0).
func (n *Network) NewResource(name string, capacity float64) *Resource {
	if capacity <= 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		panic(fmt.Sprintf("flow: resource %q capacity must be positive and finite, got %g", name, capacity))
	}
	return &Resource{name: name, capacity: capacity, net: n}
}

// ActiveFlows returns the number of currently active flows.
//
//bbvet:allow unreached -- observation hook the flow oracle and handle tests read
func (n *Network) ActiveFlows() int { return len(n.active) }

// Stats returns the cumulative solver counters.
func (n *Network) Stats() Stats { return n.stats }

// SetCapacity changes r's capacity to the given value (> 0); the rates of
// every active flow are re-solved at this instant. In-flight transfers are
// settled at their old rates up to the current instant first, so the
// change models a transient bandwidth event (degradation window,
// brown-out) exactly from "now" onward.
func (n *Network) SetCapacity(r *Resource, capacity float64) {
	if capacity <= 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		panic(fmt.Sprintf("flow: resource %q capacity must be positive and finite, got %g", r.name, capacity))
	}
	if capacity == r.capacity { //bbvet:allow float-compare -- no-op guard: restoring the exact saved capacity value skips a needless recompute
		return
	}
	n.settle()
	r.capacity = capacity
	n.invalidate()
}

// StartFlow begins transferring amount units across path. When the
// transfer completes, done (if non-nil) is called with tag. The returned
// handle can cancel the flow. A flow with an empty path and no rate cap
// completes after just its latency.
func (n *Network) StartFlow(amount float64, path []*Resource, opts Options, done Completer, tag uint64) Handle {
	if amount < 0 || math.IsNaN(amount) {
		panic(fmt.Sprintf("flow: invalid amount %g", amount))
	}
	if opts.Latency < 0 || math.IsNaN(opts.Latency) {
		panic(fmt.Sprintf("flow: invalid latency %g", opts.Latency))
	}
	cap := opts.RateCap
	if cap <= 0 {
		cap = math.Inf(1)
	}
	// The flow aliases the caller's path rather than copying it (storage
	// services hand out cached immutable paths), so callers must not mutate
	// a path while its flow is pending or active.
	n.stats.FlowsStarted++
	r, f := n.flows.Alloc()
	f.path = path
	f.done = done
	f.tag = tag
	f.remaining = amount
	f.amount = amount
	f.rateCap = cap
	if opts.Latency > 0 {
		f.latEv = n.eng.AfterTag(opts.Latency, n.activateFn, r.Tag())
	} else {
		n.activate(r.Index())
	}
	return Handle(r)
}

// Rate returns the flow's current allocated rate in units per second,
// solving the network first if a change at this instant is still pending.
// An ended flow's rate is zero.
//
//bbvet:allow unreached -- observation hook the flow oracle and handle tests read
func (n *Network) Rate(h Handle) float64 {
	n.eng.Resolve(n.nextEv)
	if f := n.flows.Live(sim.Ref(h)); f != nil && f.active {
		return n.classes.At(f.class).rate
	}
	return 0
}

// hasDuplicate reports whether path mentions any resource twice. Paths are
// 1-6 resources long, so the quadratic scan beats any map or sort.
func hasDuplicate(path []*Resource) bool {
	for i, r := range path {
		if crosses(path[:i], r) {
			return true
		}
	}
	return false
}

// dedupInto appends path to dst[:0] with repeats removed, preserving first
// occurrence order.
func dedupInto(dst, path []*Resource) []*Resource {
	dst = dst[:0]
	for _, r := range path {
		if !crosses(dst, r) {
			dst = append(dst, r)
		}
	}
	return dst
}

// crosses reports whether path mentions r.
func crosses(path []*Resource, r *Resource) bool {
	for _, p := range path {
		if p == r {
			return true
		}
	}
	return false
}

// activateTag ends a flow's latency. Cancel removes a pending latency
// event, so the tag always names a live flow.
func (n *Network) activateTag(tag uint64) {
	slot := sim.RefOf(tag).Index()
	n.flows.At(slot).latEv = sim.Handle{}
	n.activate(slot)
}

func (n *Network) activate(slot int32) {
	f := n.flows.At(slot)
	if f.remaining <= 0 || (len(f.path) == 0 && math.IsInf(f.rateCap, 1)) {
		// Instantaneous: account the amount and schedule completion now so
		// callbacks still run from the event loop, never synchronously from
		// StartFlow (callers rely on that for ordering). A Cancel before the
		// event fires releases the slot, and the stale tag makes the event
		// a no-op. The flow carries nothing, so no resource is charged.
		f.remaining = 0
		n.eng.AfterTag(0, n.instantFn, n.flows.Ref(slot).Tag())
		return
	}
	n.settle()
	f.active = true
	n.active = append(n.active, slot)
	n.join(slot)
	n.invalidate()
}

// join adds the flow in slot to its class, making one if the flow is the
// class's only active member, and counts it on every resource it crosses.
func (n *Network) join(slot int32) {
	f := n.flows.At(slot)
	ci := n.classOf(f.path, f.rateCap)
	f.class = ci
	c := n.classes.At(ci)
	c.n++
	c.fold(f.remaining)
	for _, r := range c.path {
		if r.count == 0 {
			r.at = len(n.touched)
			n.touched = append(n.touched, r)
		}
		r.count++
	}
}

// classOf returns the live class of the flows on path with rateCap, or a
// fresh one. A path is identified by its slice (first element and length),
// not by its contents: storage hands every flow between a node and a
// service the same cached slice, and two classes with equal contents are
// merely solved apart. Live classes number about as many as the distinct
// (path, cap) pairs in flight, so a linear scan beats hashing.
func (n *Network) classOf(path []*Resource, rateCap float64) int32 {
	var key *(*Resource)
	if len(path) > 0 {
		key = &path[0]
	}
	bits := math.Float64bits(rateCap)
	for _, ci := range n.inUse {
		if c := n.classes.At(ci); c.key == key && c.keyLen == len(path) && math.Float64bits(c.rateCap) == bits {
			return ci
		}
	}
	r, c := n.classes.Alloc()
	ci := r.Index()
	c.key, c.keyLen, c.rateCap = key, len(path), rateCap
	c.minRem = math.Inf(1)
	// The path is a set: a flow consumes a resource's share once no matter
	// how often the resource appears in the route description. Only a path
	// with repeats (a copy looping through the same link) is deduplicated,
	// into storage the class slot keeps for reuse.
	c.path = path
	if hasDuplicate(path) {
		c.buf = dedupInto(c.buf, path)
		c.path = c.buf
	}
	c.at = len(n.inUse)
	n.inUse = append(n.inUse, ci)
	return ci
}

// leave ends the active part of the flow in slot: it charges the flow's
// settled amount to the resources it crossed, uncounts it there, and
// frees its class once empty.
func (n *Network) leave(slot int32) {
	f := n.flows.At(slot)
	f.active = false
	c := n.classes.At(f.class)
	moved := f.amount - f.remaining
	for _, r := range c.path {
		r.processed += moved
		if r.count--; r.count == 0 {
			last := n.touched[len(n.touched)-1]
			last.at = r.at
			n.touched[r.at] = last
			n.touched = n.touched[:len(n.touched)-1]
		}
	}
	if c.n--; c.n == 0 {
		last := n.inUse[len(n.inUse)-1]
		n.classes.At(last).at = c.at
		n.inUse[c.at] = last
		n.inUse = n.inUse[:len(n.inUse)-1]
		c.key, c.path = nil, nil
		n.classes.Free(f.class)
	}
}

// Cancel aborts an in-progress flow without running its completer. A stale
// handle is a no-op.
func (n *Network) Cancel(h Handle) {
	r := sim.Ref(h)
	f := n.flows.Live(r)
	if f == nil {
		return
	}
	switch {
	case n.eng.Scheduled(f.latEv):
		n.eng.Cancel(f.latEv)
	case f.active:
		n.settle()
		n.remove(r.Index())
		n.invalidate()
	}
	// An inactive flow past its latency has its instantaneous completion
	// queued, or its completion batched behind a running callback: freeing
	// the slot makes that skip.
	f.path, f.done, f.latEv = nil, nil, sim.Handle{}
	n.flows.Free(r.Index())
}

func (n *Network) remove(slot int32) {
	f := n.flows.At(slot)
	if c := n.classes.At(f.class); c.n > 1 && f.remaining <= c.minRem {
		n.stale = true
	}
	for i, s := range n.active {
		if s == slot {
			n.active = append(n.active[:i], n.active[i+1:]...)
			break
		}
	}
	n.leave(slot)
}

// settle advances every active flow to the current time at its class's
// last computed rate, folding each class's least remaining amount as it
// goes. Rates are solved before the clock leaves an instant, so whenever
// dt > 0 they are the ones the previous instant settled on. Resources are
// charged once per flow, when it ends (leave).
func (n *Network) settle() {
	dt := n.advanceClock()
	if dt <= 0 {
		return
	}
	n.clearMinRem()
	flows, classes := n.flows, n.classes
	for _, slot := range n.active {
		f := flows.At(slot)
		c := classes.At(f.class)
		advance(f, c.rate, dt)
		c.fold(f.remaining)
	}
}

// advanceClock moves the settle time to now and returns the time elapsed
// since the last settle.
func (n *Network) advanceClock() float64 {
	now := n.eng.Now()
	dt := now - n.settled
	n.settled = now
	return dt
}

// advance moves f forward by dt at rate, never past its end.
func advance(f *flowSlot, rate, dt float64) {
	moved := rate * dt
	if moved > f.remaining {
		moved = f.remaining
	}
	f.remaining -= moved
}

// fold takes a member's remaining amount into the class's least.
func (c *class) fold(remaining float64) {
	if remaining < c.minRem {
		c.minRem = remaining
	}
}

// clearMinRem empties every live class's least-remaining fold ahead of a
// pass that refolds it from all active flows.
func (n *Network) clearMinRem() {
	for _, ci := range n.inUse {
		n.classes.At(ci).minRem = math.Inf(1)
	}
	n.stale = false
}

// recompute assigns max-min fair rates to all active flows by progressive
// filling over the live classes and the touched resources: repeatedly find
// the tightest constraint (a resource's equal share or a class's cap),
// freeze the classes it binds, and subtract their usage.
//
// The result is bit-identical to progressive filling over single flows in
// activation order (refSolve in the tests), for three reasons; see
// DESIGN.md "Class-aggregated solve". Division by a positive rate is
// monotone, so a class's least remaining amount over its rate is the least
// completion delay of its members. A resource whose frozen flows all run
// at one rate has that rate subtracted from its capacity once per flow,
// and the order of equal subtractions does not matter. A resource carrying
// frozen flows of different rates, which only multi-round solves produce,
// rebuilds its capacity left by walking the active flows in activation
// order (rebuildMixed).
func (n *Network) recompute() {
	n.stats.Recomputes++
	n.minDt = math.Inf(1)
	if len(n.active) == 0 {
		return
	}
	flows, classes := n.flows, n.classes
	if n.stale {
		n.rescans++
		n.clearMinRem()
		for _, slot := range n.active {
			f := flows.At(slot)
			classes.At(f.class).fold(f.remaining)
		}
	}
	for _, ci := range n.inUse {
		classes.At(ci).frozen = false
	}
	touched := n.touched
	for _, r := range touched {
		r.avail = r.capacity
		r.unfrozen = r.count
		r.nFrozen = 0
		r.mixed = false
	}
	for unfrozen := len(n.inUse); unfrozen > 0; {
		n.stats.FreezeRounds++
		// Tightest constraint this round. avail and unfrozen stay put
		// within a round, so each resource's share is divided out once.
		m := math.Inf(1)
		for _, r := range touched {
			if r.unfrozen > 0 {
				r.share = r.avail / float64(r.unfrozen)
				if r.share < m {
					m = r.share
				}
			}
		}
		for _, ci := range n.inUse {
			if c := classes.At(ci); !c.frozen && c.rateCap < m {
				m = c.rateCap
			}
		}
		if math.IsInf(m, 1) {
			// Remaining flows cross no resources and have no cap; they were
			// handled as instantaneous in activate, so this cannot happen.
			panic("flow: unconstrained flow in recompute")
		}
		// Freeze every class bound by this constraint: classes whose cap
		// equals the minimum, and classes crossing a resource whose share
		// equals it.
		const tol = 1 + 1e-12
		bound := m * tol
		froze := 0
		for _, ci := range n.inUse {
			c := classes.At(ci)
			if c.frozen {
				continue
			}
			bind := c.rateCap <= bound
			if !bind {
				for _, r := range c.path {
					if r.share <= bound {
						bind = true
						break
					}
				}
			}
			if !bind {
				continue
			}
			c.frozen = true
			c.rate = math.Min(m, c.rateCap)
			froze++
			if c.rate > 0 {
				if dt := c.minRem / c.rate; dt < n.minDt {
					n.minDt = dt
				}
			}
			bits := math.Float64bits(c.rate)
			for _, r := range c.path {
				if r.nFrozen == 0 {
					r.frozenRate = c.rate
				} else if math.Float64bits(r.frozenRate) != bits {
					r.mixed = true
				}
				r.nFrozen += c.n
				r.unfrozen -= c.n
				r.dirty = true
			}
		}
		if froze == 0 {
			panic("flow: progressive filling made no progress")
		}
		unfrozen -= froze
		// Subtract the frozen usage from the resources whose frozen set
		// grew; the others keep last round's capacity left. A resource
		// with no unfrozen flow left never has its share taken again, so
		// it only checks that its frozen flows fit.
		mixed := false
		for _, r := range touched {
			if !r.dirty {
				continue
			}
			if r.mixed {
				mixed = true
				continue
			}
			if r.unfrozen == 0 {
				if over := float64(float64(r.nFrozen)*r.frozenRate) - r.capacity; over > 1e-6*r.capacity {
					panic(fmt.Sprintf("flow: resource %q over-allocated by %g", r.name, over))
				}
				continue
			}
			avail, rate := r.capacity, r.frozenRate
			for i := 0; i < r.nFrozen; i++ {
				avail -= rate
			}
			r.avail = avail
		}
		if mixed {
			n.rebuildMixed()
		}
		for _, r := range touched {
			if !r.dirty {
				continue
			}
			r.dirty = false
			if r.avail < 0 {
				if r.avail < -1e-6*r.capacity {
					panic(fmt.Sprintf("flow: resource %q over-allocated by %g", r.name, -r.avail))
				}
				r.avail = 0
			}
		}
	}
}

// rebuildMixed recomputes the capacity left on the dirty resources whose
// frozen flows differ in rate, subtracting each frozen flow's rate in
// activation order: the order progressive filling over single flows
// subtracts in, which unequal rates make significant.
func (n *Network) rebuildMixed() {
	for _, r := range n.touched {
		if r.dirty && r.mixed {
			r.avail = r.capacity
		}
	}
	flows, classes := n.flows, n.classes
	for _, slot := range n.active {
		c := classes.At(flows.At(slot).class)
		if !c.frozen {
			continue
		}
		for _, r := range c.path {
			if r.dirty && r.mixed {
				r.avail -= c.rate
			}
		}
	}
}

// invalidate marks the rates stale after a change to the active set or to
// a capacity. With flows still active it moves the pending event — the
// next completion, or a slot an earlier change at this instant placed — to
// a deferred slot at the current instant, taking a sequence number exactly
// where an immediate re-arm would have; with none left it just cancels it.
func (n *Network) invalidate() {
	if now := n.eng.Now(); now > n.changed {
		n.changed = now
		n.stats.ChangedInstants++
	}
	if len(n.active) == 0 {
		n.eng.Cancel(n.nextEv) // stale or zero handles are no-ops
		n.nextEv = sim.Handle{}
		return
	}
	n.nextEv = n.eng.Defer(n.nextEv, n.resolveFn)
}

// resolve is the deferred slot's resolution: the instant's one solve. It
// recomputes the rates and arms the next completion under the slot's
// sequence number, so the event orders among same-instant events as if it
// had been armed by the change that placed the slot. The delay was folded
// into minDt by the recompute, so this is O(1) past it.
//
// After a stalled completion, a delay too small to move the clock would
// arm the same completion at the same instant again, forever; the next
// completion is armed at the next representable instant instead, where
// the flow with the least delay moves by its rate times one ulp, more
// than its residue, and finishes.
func (n *Network) resolve(seq uint64) {
	n.recompute()
	dt := n.minDt
	if math.IsInf(dt, 1) {
		panic("flow: active flows but no positive rate")
	}
	if dt < 0 {
		dt = 0
	}
	now := n.eng.Now()
	at := now + dt
	if n.stalled {
		n.stalled = false
		if at <= now {
			at = math.Nextafter(now, math.Inf(1))
		}
	}
	n.nextEv = n.eng.AtSeq(at, seq, n.completionFn)
}

func (n *Network) onCompletion() {
	n.nextEv = sim.Handle{}
	// One pass settles every flow, splits off the finished ones and folds
	// the survivors' least remaining amounts. Finished flows are collected
	// before any completer runs: completion callbacks may start new flows,
	// and the batch's removal must be ordered before anything they change.
	// The survivors are compacted in place, in their order, rather than
	// searched for and shifted out of n.active once per finished flow.
	dt := n.advanceClock()
	n.clearMinRem()
	finished := n.finished[:0]
	kept := 0
	for i, slot := range n.active {
		f := n.flows.At(slot)
		c := n.classes.At(f.class)
		if dt > 0 {
			advance(f, c.rate, dt)
		}
		if f.remaining <= completionTolerance(f.amount) {
			finished = append(finished, n.flows.Ref(slot))
			n.leave(slot)
			continue
		}
		c.fold(f.remaining)
		if kept != i {
			n.active[kept] = slot
		}
		kept++
	}
	n.active = n.active[:kept]
	n.finished = finished
	n.stalled = dt <= 0 && len(finished) == 0
	n.invalidate()
	for _, r := range finished {
		n.complete(r)
	}
}

// completeTag fires a queued instantaneous completion.
func (n *Network) completeTag(tag uint64) { n.complete(sim.RefOf(tag)) }

// complete ends the flow r names and runs its completer. The slot is
// released first, so the completer sees the flow ended and may reuse the
// slot for a flow of its own; a ref made stale by a Cancel in the
// meantime is skipped.
func (n *Network) complete(r sim.Ref) {
	f := n.flows.Live(r)
	if f == nil {
		return
	}
	done, tag := f.done, f.tag
	f.path, f.done = nil, nil
	n.flows.Free(r.Index())
	if done != nil {
		done.FlowDone(tag)
	}
}

// completionTolerance is the remaining amount below which a flow counts as
// finished. The explicit conversion rounds the product, so no platform
// fuses it with the addition.
func completionTolerance(amount float64) float64 {
	return float64(1e-9*amount) + 1e-9
}

// Utilization returns the fraction of capacity currently allocated on r
// across all active flows, solving the network first if a change at this
// instant is still pending. Intended for tests and instrumentation.
//
//bbvet:allow unreached -- observation hook the flow oracle and handle tests read
func (n *Network) Utilization(r *Resource) float64 {
	n.eng.Resolve(n.nextEv)
	used := 0.0
	for _, slot := range n.active {
		if c := n.classes.At(n.flows.At(slot).class); crosses(c.path, r) {
			used += c.rate
		}
	}
	return used / r.capacity
}
