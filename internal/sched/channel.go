package sched

import (
	"fmt"

	"bbwfsim/internal/sim"
)

// transferEps is the residual-byte tolerance below which a transfer counts
// as finished: progressive fair-share updates accumulate a few ulps of
// float drift on the remaining-byte counters.
const transferEps = 1e-6

// channel is one max–min fair staging pipe: every active transfer gets an
// equal share of the aggregate bandwidth, recomputed whenever membership
// changes. It is the campaign-scale stand-in for the single-workflow
// simulator's flow.Network — one bottleneck link instead of a topology —
// and, like everything in a run, strictly single-threaded and
// deterministic: transfers progress in insertion order, and the next
// completion is always re-derived from the current membership.
type channel struct {
	eng *sim.Engine
	bw  float64 // aggregate bytes/second, > 0

	active []*transfer
	last   float64 // instant of the last progress update

	timer      sim.Handle
	timerSet   bool
	completeFn func()      // c.complete, bound once
	finished   []*transfer // complete's buffer, reused across completions
}

// transfer is one in-flight staging phase.
type transfer struct {
	ch        *channel
	remaining float64
	done      func(tag uint64)
	tag       uint64
	cancelled bool
}

func newChannel(eng *sim.Engine, bw float64) *channel {
	if bw <= 0 {
		panic(fmt.Sprintf("sched: channel bandwidth %g", bw))
	}
	c := &channel{eng: eng, bw: bw}
	c.completeFn = c.complete
	return c
}

// add starts a transfer of the given bytes and calls done(tag) when it
// completes. Zero-byte transfers complete on the next event boundary
// (same virtual instant) without entering the channel.
func (c *channel) add(bytes float64, done func(tag uint64), tag uint64) *transfer {
	t := &transfer{ch: c, remaining: bytes, done: done, tag: tag}
	if bytes <= transferEps {
		c.eng.After(0, func() {
			if !t.cancelled {
				t.done(t.tag)
			}
		})
		return t
	}
	c.progress()
	c.active = append(c.active, t)
	c.reschedule()
	return t
}

// cancel withdraws a transfer (its job was killed); no callback fires.
func (t *transfer) cancel() {
	t.cancelled = true
	c := t.ch
	for i, o := range c.active {
		if o == t {
			c.progress()
			c.active = append(c.active[:i], c.active[i+1:]...)
			c.reschedule()
			return
		}
	}
}

// progress advances every active transfer to the current instant at the
// fair-share rate in force since the last update.
func (c *channel) progress() {
	now := c.eng.Now()
	if len(c.active) > 0 {
		rate := c.bw / float64(len(c.active))
		dt := now - c.last
		if dt > 0 {
			for _, t := range c.active {
				t.remaining -= float64(rate * dt)
			}
		}
	}
	c.last = now
}

// reschedule cancels the pending completion timer and re-arms it for the
// earliest projected completion under the current fair share.
func (c *channel) reschedule() {
	if c.timerSet {
		c.eng.Cancel(c.timer)
		c.timerSet = false
	}
	if len(c.active) == 0 {
		return
	}
	min := c.active[0].remaining
	for _, t := range c.active[1:] {
		if t.remaining < min {
			min = t.remaining
		}
	}
	if min < 0 {
		min = 0
	}
	eta := min * float64(len(c.active)) / c.bw
	c.timer = c.eng.After(eta, c.completeFn)
	c.timerSet = true
}

// complete fires at the projected earliest completion: it settles
// progress, retires every transfer within tolerance of zero (at least
// one — the minimum — always retires, so the channel cannot stall on
// float drift), and re-arms for the rest. Callbacks run in insertion
// order after the membership update, so a callback that adds a new
// transfer (the next phase of the same job) sees consistent state.
func (c *channel) complete() {
	c.timerSet = false
	c.progress()
	finished := c.finished[:0]
	keep := c.active[:0]
	minIdx := -1
	for i, t := range c.active {
		if minIdx == -1 || t.remaining < c.active[minIdx].remaining {
			minIdx = i
		}
	}
	for i, t := range c.active {
		if t.remaining <= transferEps || i == minIdx {
			finished = append(finished, t)
		} else {
			keep = append(keep, t)
		}
	}
	c.active = keep
	c.finished = finished
	c.reschedule()
	for _, t := range finished {
		if !t.cancelled {
			t.done(t.tag)
		}
	}
}
