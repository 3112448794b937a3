package flow

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"bbwfsim/internal/sim"
)

// checkMaxMin verifies the active flows' rates against the certificate of
// a max–min fair allocation, independently of progressive filling: every
// rate is positive and within its cap, no resource carries more than its
// capacity, and every flow below its cap crosses a saturated resource on
// which no other flow gets a higher rate. An allocation with that
// certificate is the unique max–min fair one.
func checkMaxMin(n *Network) error {
	const tol = 1e-9
	load := make(map[*Resource]float64)
	for i, slot := range n.active {
		f, rate := n.flows.At(slot), rateOf(n, slot)
		if !(rate > 0) || rate > f.rateCap*(1+tol) {
			return fmt.Errorf("flow %d: rate %g outside (0, cap %g]", i, rate, f.rateCap)
		}
		for _, r := range pathOf(n, slot) {
			load[r] += rate
		}
	}
	for r, l := range load {
		if l > r.capacity*(1+tol) {
			return fmt.Errorf("resource %q carries %g over capacity %g", r.name, l, r.capacity)
		}
	}
	for i, slot := range n.active {
		f, rate := n.flows.At(slot), rateOf(n, slot)
		if rate >= f.rateCap*(1-tol) {
			continue // its cap binds
		}
		if !hasBottleneck(n, slot, load, tol) {
			return fmt.Errorf("flow %d: rate %g below cap %g, but no saturated resource on its path gives it the highest rate", i, rate, f.rateCap)
		}
	}
	return nil
}

// rateOf and pathOf read an active flow's rate and deduplicated path off
// its class.
func rateOf(n *Network, slot int32) float64     { return n.classes.At(n.flows.At(slot).class).rate }
func pathOf(n *Network, slot int32) []*Resource { return n.classes.At(n.flows.At(slot).class).path }

// hasBottleneck reports whether the flow in slot crosses a saturated
// resource on which its rate is maximal.
func hasBottleneck(n *Network, slot int32, load map[*Resource]float64, tol float64) bool {
	rate := rateOf(n, slot)
	for _, r := range pathOf(n, slot) {
		if load[r] < r.capacity*(1-tol) {
			continue
		}
		maximal := true
		for _, other := range n.active {
			if rateOf(n, other) > rate*(1+tol) && crosses(pathOf(n, other), r) {
				maximal = false
				break
			}
		}
		if maximal {
			return true
		}
	}
	return false
}

// checkEveryResolve makes n check each solve against the per-flow
// reference solver, bit for bit, and against the max–min certificate. It
// must be called before the first change, since a slot keeps the resolve
// function it was placed with. The returned counters tally the solves
// checked.
func checkEveryResolve(t testing.TB, n *Network) *refCoverage {
	cov := &refCoverage{}
	n.resolveFn = func(seq uint64) {
		rounds := n.stats.FreezeRounds
		n.resolve(seq)
		if err := checkReference(n, n.stats.FreezeRounds-rounds, cov); err != nil {
			t.Fatalf("t=%g: %v", n.eng.Now(), err)
		}
		if err := checkMaxMin(n); err != nil {
			t.Fatalf("t=%g: %v", n.eng.Now(), err)
		}
	}
	return cov
}

// FuzzRecompute decodes a random topology — resources, flows over random
// subsets of them with optional caps, latencies and zero sizes, and
// capacity changes and cancellations at a few shared instants — runs it to
// completion, and checks every solve against the per-flow reference and
// the max–min certificate, and that every flow ends.
func FuzzRecompute(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 48; i++ {
		seed := make([]byte, 8+rng.Intn(120))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		e := sim.NewEngine()
		n := NewNetwork(e)
		checkEveryResolve(t, n)
		res := make([]*Resource, 1+next()%6)
		for i := range res {
			res[i] = n.NewResource(fmt.Sprint("r", i), float64(1+next()%16)*10)
		}
		var flows []Handle
		// Odd masks reuse one slice per resource set, as storage hands out
		// cached paths, so those flows share classes; even masks build a
		// fresh slice per flow.
		shared := map[int][]*Resource{}
		for k := 1 + next()%24; k > 0; k-- {
			var path []*Resource
			mask := next()
			for i, r := range res {
				if mask&(2<<i) != 0 {
					path = append(path, r)
				}
			}
			if mask%2 == 1 {
				if p, ok := shared[mask]; ok {
					path = p
				} else {
					shared[mask] = path
				}
			}
			opts := Options{Latency: float64(next()%4) / 2}
			if c := next() % 5; c > 0 && c < 3 {
				opts.RateCap = float64(c) * 7
			}
			if len(path) == 0 && opts.RateCap == 0 && next()%2 == 0 {
				path = res[:1]
			}
			amount := float64(next() % 64 * 10)
			flows = append(flows, n.StartFlow(amount, path, opts, nil, 0))
		}
		for k := next() % 6; k > 0; k-- {
			at := float64(next() % 8)
			op, arg := next(), next()
			e.At(at, func() {
				if op%2 == 0 {
					n.Cancel(flows[arg%len(flows)])
				} else {
					n.SetCapacity(res[arg%len(res)], float64(1+op%16)*10)
				}
			})
		}
		e.Run()
		for i, fl := range flows {
			if !ended(n, fl) {
				t.Fatalf("flow %d never finished", i)
			}
		}
		if n.ActiveFlows() != 0 || e.Pending() != 0 {
			t.Fatalf("drained run left %d active flows, %d pending events", n.ActiveFlows(), e.Pending())
		}
	})
}

// diffNet drives one scenario on a fresh engine and network. Eager mode
// resolves the pending solve after every change the scenario makes and
// removes a completion batch one flow at a time (removeEachCompletion) —
// the solver's behaviour before solves were deferred and batches were
// compacted in one pass; coalesced mode is the production solver. Every
// observable the two must agree on is recorded bit for bit.
type diffNet struct {
	eager bool
	e     *sim.Engine
	n     *Network
	rng   *rand.Rand
	res   []*Resource
	flows []Handle
	log   []string
}

func newDiffNet(t testing.TB, seed int64, eager bool) *diffNet {
	e := sim.NewEngine()
	d := &diffNet{eager: eager, e: e, n: NewNetwork(e), rng: rand.New(rand.NewSource(seed))}
	checkEveryResolve(t, d.n)
	if eager {
		d.n.completionFn = func() { removeEachCompletion(d.n) }
	}
	for i := 0; i < 4; i++ {
		d.res = append(d.res, d.n.NewResource(fmt.Sprint("r", i), float64(int(10)<<i)))
	}
	return d
}

// removeEachCompletion is the completion handler as it was before batches
// were compacted in one pass: each finished flow is searched for and
// shifted out of the active list on its own.
func removeEachCompletion(n *Network) {
	n.nextEv = sim.Handle{}
	n.settle()
	var finished []sim.Ref
	for _, slot := range n.active {
		if f := n.flows.At(slot); f.remaining <= completionTolerance(f.amount) {
			finished = append(finished, n.flows.Ref(slot))
		}
	}
	for _, r := range finished {
		n.remove(r.Index())
	}
	n.invalidate()
	for _, r := range finished {
		n.complete(r)
	}
}

// sync is the eager reference's immediate solve.
func (d *diffNet) sync() {
	if d.eager {
		d.e.Resolve(d.n.nextEv)
	}
}

func (d *diffNet) note(format string, args ...any) {
	d.log = append(d.log, fmt.Sprintf("%x ", math.Float64bits(d.e.Now()))+fmt.Sprintf(format, args...))
}

// start begins a flow; then runs inside its completion callback.
func (d *diffNet) start(amount float64, path []*Resource, opts Options, then func()) {
	id := len(d.flows)
	d.flows = append(d.flows, d.n.StartFlow(amount, path, opts, Func(func() {
		d.sync() // eager: the completion batch is solved before callbacks run
		d.note("done %d", id)
		if then != nil {
			then()
		}
	}), 0))
	d.sync()
}

func (d *diffNet) cancel(id int) {
	d.note("cancel %d", id)
	d.n.Cancel(d.flows[id])
	d.sync()
}

func (d *diffNet) setCapacity(r int, c float64) {
	d.note("capacity %d %g", r, c)
	d.n.SetCapacity(d.res[r], c)
	d.sync()
}

// randomOp starts, cancels or re-caps at random; sizes and capacities
// are multiples of 10 so completions keep landing on each other's and the
// script's instants.
func (d *diffNet) randomOp(depth int) {
	switch op := d.rng.Intn(8); {
	case op < 4:
		var path []*Resource
		for _, r := range d.res {
			if d.rng.Intn(3) == 0 {
				path = append(path, r)
			}
		}
		opts := Options{Latency: float64(d.rng.Intn(3)) / 2}
		if d.rng.Intn(3) == 0 {
			opts.RateCap = float64(5 * (1 + d.rng.Intn(4)))
		}
		if len(path) == 0 && opts.RateCap == 0 && d.rng.Intn(2) == 0 {
			path = d.res[1:2]
		}
		var then func()
		if depth < 3 && d.rng.Intn(2) == 0 {
			then = func() { d.randomOp(depth + 1) }
		}
		d.start(float64(10*d.rng.Intn(12)), path, opts, then)
	case op < 6:
		if len(d.flows) > 0 {
			d.cancel(d.rng.Intn(len(d.flows)))
		}
	default:
		d.setCapacity(d.rng.Intn(len(d.res)), float64(10*(1+d.rng.Intn(8))))
	}
}

// outcome is everything eager and coalesced runs must agree on.
func (d *diffNet) outcome() string {
	var b strings.Builder
	for _, l := range d.log {
		b.WriteString(l + "\n")
	}
	fmt.Fprintf(&b, "now %x fired %d maxPending %d flows %d\n", math.Float64bits(d.e.Now()),
		d.e.EventsFired(), d.e.MaxPending(), d.n.Stats().FlowsStarted)
	for _, r := range d.res {
		fmt.Fprintf(&b, "%s processed %x\n", r.name, math.Float64bits(r.Processed()))
	}
	return b.String()
}

// diffScenarios are scripted cases the random ones may miss: a cancel and
// a capacity change landing on the instant a completion is due, ordered
// both before and after it, and same-instant starts behind latency.
var diffScenarios = map[string]func(d *diffNet){
	"cancel-and-recap-at-completion": func(d *diffNet) {
		d.e.At(10, func() { d.cancel(1) })                  // before the completion at t=10
		d.start(100, d.res[:1], Options{}, nil)             // 10 u/s alone: due at t=10
		d.start(1000, d.res[1:2], Options{RateCap: 5}, nil) // still running at t=10
		d.e.At(10, func() { d.setCapacity(0, 40) })         // after the completion at t=10
		d.e.At(10, func() { d.start(0, d.res[:1], Options{}, nil) })
	},
	"ties-latency-instantaneous": func(d *diffNet) {
		for i := 0; i < 4; i++ {
			d.start(40, d.res[:2], Options{Latency: 1}, func() { d.start(0, nil, Options{}, nil) })
			d.start(0, nil, Options{Latency: 1}, nil)
			d.start(20, d.res[1:3], Options{RateCap: 10}, func() { d.cancel(0) })
		}
		d.e.At(1, func() { d.setCapacity(1, 20) })
		d.e.At(5, func() { d.setCapacity(1, 20) }) // an exact no-op
	},
	// Three of seven capped flows finish together at t=10, at the first,
	// a middle and the last position of the active list.
	"batch-first-middle-last": func(d *diffNet) {
		for i := 0; i < 7; i++ {
			amount := 100.0
			if i == 0 || i == 3 || i == 6 {
				amount = 50
			}
			d.start(amount, d.res[3:], Options{RateCap: 5}, nil)
		}
		d.start(200, d.res[2:], Options{}, nil) // shares r3 uncapped
	},
	// A batch of four whose callbacks change the active list: the first
	// cancels a survivor and starts a flow on the shared resource, the
	// second starts a flow due with the survivors, the third cancels the
	// fourth, whose callback must then not run.
	"batch-callbacks-cancel-and-start": func(d *diffNet) {
		d.start(50, d.res[3:], Options{RateCap: 5}, func() {
			d.cancel(5)
			d.start(30, d.res[2:], Options{}, nil)
		})
		d.start(100, d.res[3:], Options{RateCap: 5}, nil)
		d.start(50, d.res[3:], Options{RateCap: 5}, func() {
			d.start(50, d.res[3:], Options{RateCap: 5}, nil)
		})
		d.start(100, d.res[3:], Options{RateCap: 5}, nil)
		d.start(50, d.res[3:], Options{RateCap: 5}, func() { d.cancel(6) })
		d.start(100, d.res[3:], Options{RateCap: 5}, nil)
		d.start(50, d.res[3:], Options{RateCap: 5}, func() {
			d.start(10, d.res[:1], Options{}, nil)
		})
		d.start(400, d.res[:1], Options{}, nil) // bound by r0 alone
	},
	// Every active flow finishes at one instant.
	"batch-whole-list": func(d *diffNet) {
		for i := 0; i < 5; i++ {
			d.start(40, d.res[3:], Options{RateCap: 4}, func() {
				if i == 2 {
					d.start(8, d.res[3:], Options{RateCap: 4}, nil)
				}
			})
		}
	},
}

// TestEagerCoalescedEquivalence runs scripted and random scenarios with
// an immediate solve after every change and with one deferred solve per
// instant: callback order and times, EventsFired, MaxPending and
// per-resource Processed must agree bit for bit, the certificate must hold
// after every solve, and deferral must never solve more often.
func TestEagerCoalescedEquivalence(t *testing.T) {
	run := func(t *testing.T, seed int64, script func(d *diffNet)) {
		var outs [2]string
		var solves [2]uint64
		for i, eager := range []bool{true, false} {
			d := newDiffNet(t, seed, eager)
			script(d)
			d.e.Run()
			outs[i], solves[i] = d.outcome(), d.n.Stats().Recomputes
		}
		if outs[0] != outs[1] {
			t.Fatalf("eager and coalesced runs diverge\neager:\n%s\ncoalesced:\n%s", outs[0], outs[1])
		}
		if solves[1] > solves[0] {
			t.Errorf("coalesced run solved %d times, eager %d", solves[1], solves[0])
		}
	}
	for name, script := range diffScenarios {
		t.Run(name, func(t *testing.T) { run(t, 1, script) })
	}
	for seed := int64(1); seed <= 300; seed++ {
		run(t, seed, func(d *diffNet) {
			for k := 6 + d.rng.Intn(10); k > 0; k-- {
				d.randomOp(0)
			}
			for k := d.rng.Intn(12); k > 0; k-- {
				d.e.At(float64(d.rng.Intn(6)), func() { d.randomOp(0) })
			}
		})
	}
}

// TestInvalidateZeroAllocs: once the network's slot is pending, further
// changes at the same instant move it without allocating.
func TestInvalidateZeroAllocs(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	link := n.NewResource("link", 1000)
	for j := 0; j < 8; j++ {
		n.StartFlow(1e12, []*Resource{link}, Options{}, nil, 0)
	}
	if avg := testing.AllocsPerRun(100, n.invalidate); avg != 0 {
		t.Fatalf("invalidate allocated %.1f times per run, want 0", avg)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending %d after repeated invalidation, want the one slot", e.Pending())
	}
}

// TestRearmedCompletionTakesChangeSeq: a change re-arms the next
// completion under the sequence number of the change, not of the event it
// replaces, exactly as an immediate re-arm did: here a start at t=5 that
// leaves flow a's completion at t=10 still moves it behind an event
// scheduled for t=10 before the start.
func TestRearmedCompletionTakesChangeSeq(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	r0, r1 := n.NewResource("r0", 10), n.NewResource("r1", 10)
	var log []string
	n.StartFlow(100, []*Resource{r0}, Options{}, Func(func() { log = append(log, "a done") }), 0)
	e.At(10, func() { log = append(log, "event at 10") })
	e.At(5, func() { n.StartFlow(1000, []*Resource{r1}, Options{}, nil, 0) })
	e.Run()
	if got, want := strings.Join(log, ", "), "event at 10, a done"; got != want {
		t.Errorf("order %q, want %q", got, want)
	}
}
