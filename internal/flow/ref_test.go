package flow

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bbwfsim/internal/sim"
)

// refResult is what the per-flow reference solver computes for the active
// flows: each flow's rate in activation order, the next-completion delay,
// and the number of progressive-filling rounds.
type refResult struct {
	rates  []float64
	minDt  float64
	rounds uint64
	// mixed reports that some resource ended the solve carrying frozen
	// flows of different rates.
	mixed bool
}

// refSolve is progressive filling over single flows, as the solver ran
// before it aggregated flows into classes: every round rebuilds each
// resource's capacity left by subtracting the frozen flows' rates in
// activation order. It reads the network's state and changes none of it;
// each flow's path is deduplicated here, independently of its class.
func refSolve(n *Network) refResult {
	type resState struct {
		r     *Resource
		avail float64
		count int
	}
	var res []resState
	index := map[*Resource]int{}
	k := len(n.active)
	paths := make([][]int, k)
	for i, slot := range n.active {
		var seen []*Resource
		for _, r := range n.flows.At(slot).path {
			if crosses(seen, r) {
				continue
			}
			seen = append(seen, r)
			j, ok := index[r]
			if !ok {
				j = len(res)
				index[r] = j
				res = append(res, resState{r: r, avail: r.capacity})
			}
			res[j].count++
			paths[i] = append(paths[i], j)
		}
	}
	out := refResult{rates: make([]float64, k), minDt: math.Inf(1)}
	frozen := make([]bool, k)
	for unfrozen := k; unfrozen > 0; {
		out.rounds++
		m := math.Inf(1)
		for _, s := range res {
			if s.count > 0 {
				if share := s.avail / float64(s.count); share < m {
					m = share
				}
			}
		}
		for i, slot := range n.active {
			if c := n.flows.At(slot).rateCap; !frozen[i] && c < m {
				m = c
			}
		}
		if math.IsInf(m, 1) {
			panic("flow: unconstrained flow in recompute")
		}
		const tol = 1 + 1e-12
		froze := 0
		for i, slot := range n.active {
			if frozen[i] {
				continue
			}
			f := n.flows.At(slot)
			bind := f.rateCap <= m*tol
			if !bind {
				for _, j := range paths[i] {
					if res[j].avail/float64(res[j].count) <= m*tol {
						bind = true
						break
					}
				}
			}
			if bind {
				frozen[i] = true
				out.rates[i] = math.Min(m, f.rateCap)
				froze++
				if out.rates[i] > 0 {
					if dt := f.remaining / out.rates[i]; dt < out.minDt {
						out.minDt = dt
					}
				}
			}
		}
		if froze == 0 {
			panic("flow: progressive filling made no progress")
		}
		for j := range res {
			res[j].avail = res[j].r.capacity
			res[j].count = 0
		}
		unfrozen = 0
		for i := range n.active {
			for _, j := range paths[i] {
				if frozen[i] {
					res[j].avail -= out.rates[i]
				} else {
					res[j].count++
				}
			}
			if !frozen[i] {
				unfrozen++
			}
		}
		for j, s := range res {
			if s.avail < 0 {
				if s.avail < -1e-6*s.r.capacity {
					panic(fmt.Sprintf("flow: resource %q over-allocated by %g", s.r.name, -s.avail))
				}
				res[j].avail = 0
			}
		}
	}
	first := make([]float64, len(res))
	for j := range first {
		first[j] = math.NaN()
	}
	for i := range n.active {
		for _, j := range paths[i] {
			if math.IsNaN(first[j]) {
				first[j] = out.rates[i]
			} else if math.Float64bits(first[j]) != math.Float64bits(out.rates[i]) {
				out.mixed = true
			}
		}
	}
	return out
}

// refCoverage counts the solves checkReference compared, the multi-round
// ones, and those that left a resource carrying frozen flows of different
// rates: the case the class solve rebuilds in activation order.
type refCoverage struct {
	solves, multiRound, mixed int
}

// checkReference compares the solve that just ran, which took rounds
// progressive-filling rounds, with refSolve bit for bit: every active
// flow's rate, the next-completion delay, and the round count.
func checkReference(n *Network, rounds uint64, cov *refCoverage) error {
	ref := refSolve(n)
	cov.solves++
	if ref.rounds > 1 {
		cov.multiRound++
	}
	if ref.mixed {
		cov.mixed++
	}
	for i, slot := range n.active {
		if got, want := rateOf(n, slot), ref.rates[i]; math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("flow %d of %d: rate %v (%x), reference %v (%x)", i, len(n.active), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if math.Float64bits(n.minDt) != math.Float64bits(ref.minDt) {
		return fmt.Errorf("next completion in %v (%x), reference %v (%x)", n.minDt, math.Float64bits(n.minDt), ref.minDt, math.Float64bits(ref.minDt))
	}
	if rounds != ref.rounds {
		return fmt.Errorf("%d freeze rounds, reference %d", rounds, ref.rounds)
	}
	return nil
}

// runSharedPaths drives one random scenario shaped like storage traffic:
// every flow takes one of a few shared path slices (one a prefix of
// another, some repeating a resource), and one of a few rate caps, so
// flows pile into classes; capacities, caps and amounts are irregular,
// flows start behind latencies and from completion callbacks, and cancels
// and capacity changes land mid-transfer. Every solve is checked against
// refSolve.
func runSharedPaths(t testing.TB, seed int64) *refCoverage {
	defer func() {
		if t.Failed() {
			t.Logf("shared-path scenario seed %d", seed)
		}
	}()
	rng := rand.New(rand.NewSource(seed))
	e := sim.NewEngine()
	n := NewNetwork(e)
	cov := checkEveryResolve(t, n)
	res := make([]*Resource, 2+rng.Intn(4))
	for i := range res {
		res[i] = n.NewResource(fmt.Sprint("r", i), 10+rng.Float64()*990)
	}
	paths := make([][]*Resource, 2+rng.Intn(4))
	for i := range paths {
		var p []*Resource
		for _, r := range res {
			if rng.Intn(2) == 0 {
				p = append(p, r)
			}
		}
		if len(p) == 0 {
			p = append(p, res[rng.Intn(len(res))])
		}
		if rng.Intn(5) == 0 {
			p = append(p, p[0])
		}
		paths[i] = p
	}
	if len(paths[0]) > 1 {
		paths = append(paths, paths[0][:1])
	}
	caps := []float64{0, 0, 1 + rng.Float64()*200, 1 + rng.Float64()*200}
	var flows []Handle
	var start func(depth int)
	start = func(depth int) {
		opts := Options{RateCap: caps[rng.Intn(len(caps))]}
		if rng.Intn(4) == 0 {
			opts.Latency = rng.Float64()
		}
		amount := 1 + rng.Float64()*1000
		if rng.Intn(20) == 0 {
			amount = 0
		}
		var done Completer
		if depth < 2 && rng.Intn(3) == 0 {
			done = Func(func() { start(depth + 1) })
		}
		flows = append(flows, n.StartFlow(amount, paths[rng.Intn(len(paths))], opts, done, 0))
	}
	for k := 4 + rng.Intn(24); k > 0; k-- {
		start(0)
	}
	for k := rng.Intn(8); k > 0; k-- {
		e.At(rng.Float64()*20, func() {
			switch rng.Intn(3) {
			case 0:
				n.Cancel(flows[rng.Intn(len(flows))])
			case 1:
				n.SetCapacity(res[rng.Intn(len(res))], 10+rng.Float64()*990)
			default:
				start(0)
			}
		})
	}
	e.Run()
	if n.ActiveFlows() != 0 || e.Pending() != 0 {
		t.Fatalf("seed %d: drained run left %d active flows, %d pending events", seed, n.ActiveFlows(), e.Pending())
	}
	return cov
}

// TestClassSolveMatchesReference runs 3,000 shared-path scenarios and
// compares every solve with the per-flow reference bit for bit. The
// generator must reach the solves where exactness is hardest: multi-round
// ones that leave a resource carrying frozen flows of different rates.
func TestClassSolveMatchesReference(t *testing.T) {
	var total refCoverage
	for seed := int64(1); seed <= 3000; seed++ {
		cov := runSharedPaths(t, seed)
		total.solves += cov.solves
		total.multiRound += cov.multiRound
		total.mixed += cov.mixed
	}
	t.Logf("%d solves checked, %d multi-round, %d with mixed-rate resources", total.solves, total.multiRound, total.mixed)
	if total.multiRound < total.solves/10 || total.mixed < total.solves/10 {
		t.Errorf("generator reached %d multi-round and %d mixed-rate solves of %d; want at least a tenth each",
			total.multiRound, total.mixed, total.solves)
	}
}
