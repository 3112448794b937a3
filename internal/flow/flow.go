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
// is independent of transfer sizes: per solve, progressive filling visits
// only the resources actually crossed by an active flow (idle resources
// cost nothing) and computes the next completion as a side product — no
// separate scan of the active set. Flows live in a slab on the Network,
// reached through generation-counted Handles, and all scratch is pooled
// there too, so the steady state allocates nothing.
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

	processed float64 // total units pushed through, for accounting/tests

	// scratch state used during recompute; owned by the Network. gen marks
	// the recompute that last initialized it, so idle resources cost
	// nothing: a resource crossed by no active flow is never visited.
	avail float64
	count int
	gen   uint64
}

// Capacity returns the resource's capacity in units per second.
func (r *Resource) Capacity() float64 { return r.capacity }

// Processed returns the total number of units this resource has carried.
//
//bbvet:allow unreached -- observation hook the flow oracle and handle tests read
func (r *Resource) Processed() float64 { return r.processed }

// Handle identifies one flow of a Network. Flows live in the network's
// slab and their slots are reused once a flow completes or is cancelled,
// so a handle pairs the slot with the generation it was issued for — the
// scheme sim.Handle uses for pooled events. A handle whose flow has ended
// is stale: Cancel on it is a no-op, Done reports true and Rate zero, even
// after the slot was reissued to another flow. The zero Handle behaves
// like an ended flow.
type Handle struct {
	slot int32
	gen  uint32 // slot generations start at 1, so the zero Handle is stale
}

// tag packs the handle into an event tag.
func (h Handle) tag() uint64 { return uint64(h.gen)<<32 | uint64(uint32(h.slot)) }

// handleOf unpacks an event tag.
func handleOf(tag uint64) Handle { return Handle{slot: int32(uint32(tag)), gen: uint32(tag >> 32)} }

// Completer is told when a flow completes. The tag is the one the flow was
// started with, so one long-lived completer — a pointer, stored in an
// interface without allocating — can serve every flow it starts.
type Completer interface {
	FlowDone(tag uint64)
}

// flowSlot is one slab entry: a flow while its generation matches the
// issued handle, free (on Network.free) otherwise.
type flowSlot struct {
	path      []*Resource
	done      Completer
	tag       uint64
	remaining float64
	amount    float64
	rateCap   float64 // +Inf when uncapped
	rate      float64
	latEv     sim.Handle // pending latency activation
	gen       uint32
	active    bool
	frozen    bool // scratch for progressive filling
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
	eng       *sim.Engine
	resources []*Resource
	// flows is the slab every flow lives in; free holds the slots of ended
	// flows for reuse, so the steady state allocates no flow at all.
	flows []flowSlot
	free  []int32
	// active lists the slots of the flows holding resources, in activation
	// order. Compacting int32 slot indices pays no GC write barrier, unlike
	// a slice of pointers.
	active  []int32
	settled float64    // virtual time of the last settle
	changed float64    // virtual time of the last change, -Inf before any
	nextEv  sim.Handle // the deferred solve, or else the next completion

	// Hot-path scratch, reused across recomputes so the steady state
	// allocates nothing (asserted by TestRecomputeZeroAllocs):
	gen          uint64           // recompute generation, stamps Resource.gen
	touched      []*Resource      // resources crossed by ≥1 active flow
	finished     []Handle         // completion batch, collected per event
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
	r := &Resource{name: name, capacity: capacity}
	n.resources = append(n.resources, r)
	return r
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
	// The path is a set: a flow consumes a resource's share once no matter
	// how often the resource appears in the route description. Paths are
	// almost always duplicate-free already (storage services hand out cached
	// immutable paths), so the common case aliases the caller's slice rather
	// than copying it; callers must not mutate a path while its flow is
	// active. Only a path with repeats (e.g. a copy looping through the same
	// link) pays for a deduplicated copy.
	dedup := path
	if hasDuplicate(path) {
		dedup = dedupPath(path)
	}
	n.stats.FlowsStarted++
	h := n.alloc()
	f := &n.flows[h.slot]
	f.path = dedup
	f.done = done
	f.tag = tag
	f.remaining = amount
	f.amount = amount
	f.rateCap = cap
	f.rate = 0
	if opts.Latency > 0 {
		f.latEv = n.eng.AfterTag(opts.Latency, n.activateFn, h.tag())
	} else {
		n.activate(h.slot)
	}
	return h
}

// alloc takes a free slot, or grows the slab by one.
func (n *Network) alloc() Handle {
	if k := len(n.free); k > 0 {
		slot := n.free[k-1]
		n.free = n.free[:k-1]
		return Handle{slot: slot, gen: n.flows[slot].gen}
	}
	n.flows = append(n.flows, flowSlot{gen: 1})
	return Handle{slot: int32(len(n.flows) - 1), gen: 1}
}

// release ends the flow in slot: the generation bump makes every handle
// to it stale, and the slot returns to the free list.
func (n *Network) release(slot int32) {
	f := &n.flows[slot]
	f.gen++
	f.path = nil
	f.done = nil
	f.latEv = sim.Handle{}
	n.free = append(n.free, slot)
}

// live returns the slot h names, or nil when h is stale.
func (n *Network) live(h Handle) *flowSlot {
	if h.gen == 0 || int(h.slot) >= len(n.flows) {
		return nil
	}
	if f := &n.flows[h.slot]; f.gen == h.gen {
		return f
	}
	return nil
}

// Rate returns the flow's current allocated rate in units per second,
// solving the network first if a change at this instant is still pending.
// An ended flow's rate is zero.
//
//bbvet:allow unreached -- observation hook the flow oracle and handle tests read
func (n *Network) Rate(h Handle) float64 {
	n.eng.Resolve(n.nextEv)
	if f := n.live(h); f != nil {
		return f.rate
	}
	return 0
}

// hasDuplicate reports whether path mentions any resource twice. Paths are
// 1-6 resources long, so the quadratic scan beats any map or sort.
func hasDuplicate(path []*Resource) bool {
	for i, r := range path {
		for _, d := range path[:i] {
			if d == r {
				return true
			}
		}
	}
	return false
}

// dedupPath returns a copy of path with repeats removed, preserving first
// occurrence order.
func dedupPath(path []*Resource) []*Resource {
	dedup := make([]*Resource, 0, len(path))
	for _, r := range path {
		seen := false
		for _, d := range dedup {
			if d == r {
				seen = true
				break
			}
		}
		if !seen {
			dedup = append(dedup, r)
		}
	}
	return dedup
}

// activateTag ends a flow's latency. Cancel removes a pending latency
// event, so the tag always names a live flow.
func (n *Network) activateTag(tag uint64) {
	h := handleOf(tag)
	n.flows[h.slot].latEv = sim.Handle{}
	n.activate(h.slot)
}

func (n *Network) activate(slot int32) {
	f := &n.flows[slot]
	if f.remaining <= 0 || (len(f.path) == 0 && math.IsInf(f.rateCap, 1)) {
		// Instantaneous: account the amount and schedule completion now so
		// callbacks still run from the event loop, never synchronously from
		// StartFlow (callers rely on that for ordering). A Cancel before the
		// event fires releases the slot, and the stale tag makes the event
		// a no-op.
		for _, r := range f.path {
			r.processed += f.remaining
		}
		f.remaining = 0
		n.eng.AfterTag(0, n.instantFn, Handle{slot: slot, gen: f.gen}.tag())
		return
	}
	n.settle()
	f.active = true
	n.active = append(n.active, slot)
	n.invalidate()
}

// Cancel aborts an in-progress flow without running its completer. A stale
// handle is a no-op.
func (n *Network) Cancel(h Handle) {
	f := n.live(h)
	if f == nil {
		return
	}
	if !f.latEv.Cancelled() {
		n.eng.Cancel(f.latEv)
		n.release(h.slot)
		return
	}
	if !f.active {
		// Instantaneous completion already queued, or completion batched
		// behind a running callback: releasing the slot makes it skip.
		n.release(h.slot)
		return
	}
	n.settle()
	n.remove(h.slot)
	n.release(h.slot)
	n.invalidate()
}

func (n *Network) remove(slot int32) {
	for i, s := range n.active {
		if s == slot {
			n.active = append(n.active[:i], n.active[i+1:]...)
			break
		}
	}
	f := &n.flows[slot]
	f.active = false
	f.rate = 0
}

// settle advances every active flow to the current time at its last
// computed rate. Rates are solved before the clock leaves an instant, so
// whenever dt > 0 they are the ones the previous instant settled on.
func (n *Network) settle() {
	now := n.eng.Now()
	dt := now - n.settled
	n.settled = now
	if dt <= 0 {
		return
	}
	for _, slot := range n.active {
		f := &n.flows[slot]
		moved := f.rate * dt
		if moved > f.remaining {
			moved = f.remaining
		}
		f.remaining -= moved
		for _, r := range f.path {
			r.processed += moved
		}
	}
}

// recompute assigns max-min fair rates to all active flows by progressive
// filling over the touched-resource set: repeatedly find the tightest
// constraint (a resource's equal share or a flow's cap), freeze the flows
// it binds, and subtract their usage.
//
// Only resources actually crossed by an active flow participate at all —
// the generation stamp identifies them in one pass over the active paths,
// so idle resources cost nothing — and each flow's projected completion
// delay is folded into minDt the moment its rate freezes, so resolve needs
// no scan of its own. The inner rounds deliberately iterate n.active with a
// frozen-flag check rather than maintaining compacted worklists: the flag
// test is branch-cheap and the slab keeps the flows contiguous. Every
// floating-point operation happens on the same values in the same order as
// the original full-network recompute, keeping results bit-identical; see
// DESIGN.md "Campaign parallelism & the flow hot path".
func (n *Network) recompute() {
	n.stats.Recomputes++
	n.minDt = math.Inf(1)
	if len(n.active) == 0 {
		return
	}
	// Stamp the touched-resource set. Scratch is reused across recomputes,
	// so the steady state allocates nothing; the set never outgrows the
	// registered resources, so one allocation sized to them replaces the
	// doublings of growing it.
	n.gen++
	if cap(n.touched) < len(n.resources) {
		n.touched = make([]*Resource, 0, len(n.resources))
	}
	touched := n.touched[:0]
	flows := n.flows
	unfrozen := 0
	for _, slot := range n.active {
		f := &flows[slot]
		f.frozen = false
		f.rate = 0
		for _, r := range f.path {
			if r.gen != n.gen {
				r.gen = n.gen
				r.avail = r.capacity
				r.count = 0
				touched = append(touched, r)
			}
			r.count++
		}
		unfrozen++
	}
	n.touched = touched
	for unfrozen > 0 {
		n.stats.FreezeRounds++
		// Tightest constraint this round.
		m := math.Inf(1)
		for _, r := range touched {
			if r.count > 0 {
				if share := r.avail / float64(r.count); share < m {
					m = share
				}
			}
		}
		for _, slot := range n.active {
			if f := &flows[slot]; !f.frozen && f.rateCap < m {
				m = f.rateCap
			}
		}
		if math.IsInf(m, 1) {
			// Remaining flows cross no resources and have no cap; they were
			// handled as instantaneous in activate, so this cannot happen.
			panic("flow: unconstrained flow in recompute")
		}
		// Freeze every flow bound by this constraint: flows whose cap equals
		// the minimum, and flows crossing a resource whose share equals it.
		const tol = 1 + 1e-12
		froze := 0
		for _, slot := range n.active {
			f := &flows[slot]
			if f.frozen {
				continue
			}
			bind := f.rateCap <= m*tol
			if !bind {
				for _, r := range f.path {
					if r.avail/float64(r.count) <= m*tol {
						bind = true
						break
					}
				}
			}
			if bind {
				f.frozen = true
				f.rate = math.Min(m, f.rateCap)
				froze++
				if f.rate > 0 {
					if dt := f.remaining / f.rate; dt < n.minDt {
						n.minDt = dt
					}
				}
			}
		}
		if froze == 0 {
			panic("flow: progressive filling made no progress")
		}
		// Subtract frozen usage; rebuild avail/count on the touched
		// resources for the next round.
		for _, r := range touched {
			r.avail = r.capacity
			r.count = 0
		}
		unfrozen = 0
		for _, slot := range n.active {
			f := &flows[slot]
			if f.frozen {
				for _, r := range f.path {
					r.avail -= f.rate
				}
			} else {
				for _, r := range f.path {
					r.count++
				}
				unfrozen++
			}
		}
		for _, r := range touched {
			if r.avail < 0 {
				if r.avail < -1e-6*r.capacity {
					panic(fmt.Sprintf("flow: resource %q over-allocated by %g", r.name, -r.avail))
				}
				r.avail = 0
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
func (n *Network) resolve(seq uint64) {
	n.recompute()
	dt := n.minDt
	if math.IsInf(dt, 1) {
		panic("flow: active flows but no positive rate")
	}
	if dt < 0 {
		dt = 0
	}
	n.nextEv = n.eng.AtSeq(n.eng.Now()+dt, seq, n.completionFn)
}

func (n *Network) onCompletion() {
	n.nextEv = sim.Handle{}
	n.settle()
	// Collect finished flows first: completion callbacks may start new flows,
	// and the batch's removal must be ordered before anything they change.
	// One pass splits the batch off and compacts the survivors in place,
	// in their order, rather than searching and shifting n.active once per
	// finished flow.
	finished := n.finished[:0]
	kept := 0
	for i, slot := range n.active {
		f := &n.flows[slot]
		if f.remaining <= completionTolerance(f.amount) {
			finished = append(finished, Handle{slot: slot, gen: f.gen})
			f.active = false
			f.rate = 0
			continue
		}
		if kept != i {
			n.active[kept] = slot
		}
		kept++
	}
	n.active = n.active[:kept]
	n.finished = finished
	n.invalidate()
	for _, h := range finished {
		n.complete(h)
	}
}

// completeTag fires a queued instantaneous completion.
func (n *Network) completeTag(tag uint64) { n.complete(handleOf(tag)) }

// complete ends the flow h names and runs its completer. The slot is
// released first, so the completer sees the flow Done and may reuse the
// slot for a flow of its own; a handle made stale by a Cancel in the
// meantime is skipped.
func (n *Network) complete(h Handle) {
	f := n.live(h)
	if f == nil {
		return
	}
	done, tag := f.done, f.tag
	n.release(h.slot)
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
		f := &n.flows[slot]
		for _, p := range f.path {
			if p == r {
				used += f.rate
				break
			}
		}
	}
	return used / r.capacity
}
