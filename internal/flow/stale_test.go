package flow

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bbwfsim/internal/sim"
)

// staleSchedule is one way of changing a network between and at its
// completion instants, aimed at the classes' least-remaining folds.
type staleSchedule int

const (
	// cancelMinAtCompletion: completion callbacks cancel the
	// least-remaining flow of a class that keeps other members, the one
	// change that leaves a fold stale.
	cancelMinAtCompletion staleSchedule = iota
	// startIntoClasses: completion callbacks start flows on the paths and
	// caps of live classes, so they join existing folds.
	startIntoClasses
	// capacityBetweenCompletions: capacities change at instants no
	// completion falls on, settling every flow off a completion.
	capacityBetweenCompletions
)

func (s staleSchedule) String() string {
	return [...]string{"cancel-min-at-completion", "start-into-classes", "capacity-between-completions"}[s]
}

// staleRun is what runStaleMin observed: each flow's completion time by
// tag (cancelled flows have none), the full rescans the solver made, and
// how many least-remaining flows the schedule cancelled.
type staleRun struct {
	done    map[uint64]float64
	rescans uint64
	cancels int
	solves  int
}

// staleRecorder completes flows for runStaleMin.
type staleRecorder struct {
	e     *sim.Engine
	run   *staleRun
	onEnd func()
}

func (r *staleRecorder) FlowDone(tag uint64) {
	r.run.done[tag] = r.e.Now()
	r.onEnd()
}

// runStaleMin drives one seeded scenario of the given schedule over a few
// shared path slices and rate caps, checking every solve against refSolve
// and the max–min certificate. With forceRescan every solve rescans the
// active flows for the least remaining amounts, as the solver did before
// it kept the folds across events.
func runStaleMin(t testing.TB, seed int64, sched staleSchedule, forceRescan bool) staleRun {
	rng := rand.New(rand.NewSource(seed))
	e := sim.NewEngine()
	n := NewNetwork(e)
	cov := checkEveryResolve(t, n)
	if forceRescan {
		check := n.resolveFn
		n.resolveFn = func(seq uint64) {
			n.stale = true
			check(seq)
		}
	}
	run := staleRun{done: map[uint64]float64{}}
	res := make([]*Resource, 2+rng.Intn(3))
	for i := range res {
		res[i] = n.NewResource(fmt.Sprint("r", i), 10+rng.Float64()*990)
	}
	paths := make([][]*Resource, 2+rng.Intn(3))
	for i := range paths {
		p := []*Resource{res[rng.Intn(len(res))]}
		for _, r := range res {
			if rng.Intn(3) == 0 && !crosses(p, r) {
				p = append(p, r)
			}
		}
		paths[i] = p
	}
	caps := []float64{0, 0, 1 + rng.Float64()*200}
	rec := &staleRecorder{e: e, run: &run}
	var tag uint64
	start := func() {
		tag++
		opts := Options{RateCap: caps[rng.Intn(len(caps))]}
		if rng.Intn(5) == 0 {
			opts.Latency = rng.Float64()
		}
		n.StartFlow(1+rng.Float64()*1000, paths[rng.Intn(len(paths))], opts, rec, tag)
	}
	started := 0
	rec.onEnd = func() {
		switch sched {
		case cancelMinAtCompletion:
			if rng.Intn(2) == 0 {
				if slot, ok := leastOfSharedClass(n, rng); ok {
					n.Cancel(Handle(n.flows.Ref(slot)))
					run.cancels++
				}
			}
		case startIntoClasses:
			// Reuse a live class's path and cap, so the new flow joins it.
			if started < 60 && len(n.inUse) > 0 && rng.Intn(2) == 0 {
				c := n.classes.At(n.inUse[rng.Intn(len(n.inUse))])
				for _, p := range paths {
					if len(p) == c.keyLen && &p[0] == c.key {
						tag++
						started++
						n.StartFlow(1+rng.Float64()*1000, p, Options{RateCap: c.rateCap}, rec, tag)
						break
					}
				}
			}
		}
	}
	for k := 6 + rng.Intn(20); k > 0; k-- {
		start()
	}
	if sched == capacityBetweenCompletions {
		for k := 2 + rng.Intn(6); k > 0; k-- {
			e.At(rng.Float64()*30, func() {
				n.SetCapacity(res[rng.Intn(len(res))], 10+rng.Float64()*990)
			})
		}
	}
	e.Run()
	if n.ActiveFlows() != 0 {
		t.Fatalf("%s seed %d: drained run left %d active flows", sched, seed, n.ActiveFlows())
	}
	run.rescans = n.rescans
	run.solves = cov.solves
	return run
}

// leastOfSharedClass picks a random live class with at least two active
// flows and returns the slot of its least-remaining flow.
func leastOfSharedClass(n *Network, rng *rand.Rand) (int32, bool) {
	var shared []int32
	for _, ci := range n.inUse {
		if n.classes.At(ci).n >= 2 {
			shared = append(shared, ci)
		}
	}
	if len(shared) == 0 {
		return 0, false
	}
	ci := shared[rng.Intn(len(shared))]
	least, best := int32(-1), math.Inf(1)
	for _, slot := range n.active {
		if f := n.flows.At(slot); f.class == ci && f.remaining < best {
			least, best = slot, f.remaining
		}
	}
	return least, least >= 0
}

// TestStaleMinSchedules runs each schedule over 300 seeds. Every solve
// matches refSolve bit for bit, and every flow completes at the same
// instant, to the bit, as in a run that rescans the active flows at every
// solve. Only cancelling a class's least-remaining flow makes the solver
// rescan, and then at most once per such cancel.
func TestStaleMinSchedules(t *testing.T) {
	for _, sched := range []staleSchedule{cancelMinAtCompletion, startIntoClasses, capacityBetweenCompletions} {
		t.Run(sched.String(), func(t *testing.T) {
			var rescans uint64
			cancels, solves := 0, 0
			for seed := int64(1); seed <= 300; seed++ {
				got := runStaleMin(t, seed, sched, false)
				want := runStaleMin(t, seed, sched, true)
				if len(got.done) != len(want.done) {
					t.Fatalf("seed %d: %d flows completed, %d with a rescan per solve", seed, len(got.done), len(want.done))
				}
				for tag, at := range want.done {
					if g, ok := got.done[tag]; !ok || math.Float64bits(g) != math.Float64bits(at) {
						t.Fatalf("seed %d: flow %d completed at %v (%v), %v with a rescan per solve", seed, tag, g, ok, at)
					}
				}
				if got.rescans > uint64(got.cancels) {
					t.Fatalf("seed %d: %d rescans for %d cancels", seed, got.rescans, got.cancels)
				}
				rescans += got.rescans
				cancels += got.cancels
				solves += got.solves
			}
			t.Logf("%d solves, %d least-remaining cancels, %d full rescans", solves, cancels, rescans)
			switch {
			case sched == cancelMinAtCompletion && (cancels == 0 || rescans == 0):
				t.Errorf("schedule made %d cancels and %d rescans; want both positive", cancels, rescans)
			case sched != cancelMinAtCompletion && rescans != 0:
				t.Errorf("%d full rescans without a cancel", rescans)
			}
		})
	}
}
