package flow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bbwfsim/internal/sim"
)

const eps = 1e-6

func approx(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))
}

func TestSingleFlowTime(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	r := n.NewResource("link", 100) // 100 units/s
	var done float64 = -1
	n.StartFlow(1000, []*Resource{r}, Options{}, Func(func() { done = e.Now() }), 0)
	e.Run()
	if !approx(done, 10, eps) {
		t.Errorf("single flow completed at %v, want 10", done)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	r := n.NewResource("link", 100)
	var t1, t2 float64
	n.StartFlow(1000, []*Resource{r}, Options{}, Func(func() { t1 = e.Now() }), 0)
	n.StartFlow(1000, []*Resource{r}, Options{}, Func(func() { t2 = e.Now() }), 0)
	e.Run()
	// Both at 50 units/s for the full transfer: both finish at 20s.
	if !approx(t1, 20, eps) || !approx(t2, 20, eps) {
		t.Errorf("equal flows completed at %v, %v, want 20, 20", t1, t2)
	}
}

func TestShorterFlowFreesBandwidth(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	r := n.NewResource("link", 100)
	var tShort, tLong float64
	n.StartFlow(500, []*Resource{r}, Options{}, Func(func() { tShort = e.Now() }), 0)
	n.StartFlow(1500, []*Resource{r}, Options{}, Func(func() { tLong = e.Now() }), 0)
	e.Run()
	// Phase 1: both at 50 u/s until the short one finishes at t=10 (500/50).
	// Phase 2: long has 1000 left at 100 u/s → finishes at t=20.
	if !approx(tShort, 10, eps) {
		t.Errorf("short flow completed at %v, want 10", tShort)
	}
	if !approx(tLong, 20, eps) {
		t.Errorf("long flow completed at %v, want 20", tLong)
	}
}

func TestRateCapBinds(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	r := n.NewResource("link", 100)
	var tCapped, tFree float64
	n.StartFlow(300, []*Resource{r}, Options{RateCap: 30}, Func(func() { tCapped = e.Now() }), 0)
	n.StartFlow(700, []*Resource{r}, Options{}, Func(func() { tFree = e.Now() }), 0)
	e.Run()
	// Capped runs at 30; free gets the remaining 70. Both end at t=10.
	if !approx(tCapped, 10, eps) || !approx(tFree, 10, eps) {
		t.Errorf("completion times %v, %v; want 10, 10", tCapped, tFree)
	}
}

func TestCapBelowFairShareAlone(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	r := n.NewResource("link", 1000)
	var done float64
	n.StartFlow(100, []*Resource{r}, Options{RateCap: 10}, Func(func() { done = e.Now() }), 0)
	e.Run()
	if !approx(done, 10, eps) {
		t.Errorf("capped lone flow completed at %v, want 10", done)
	}
}

func TestSerialPathBottleneck(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	net := n.NewResource("net", 800)
	disk := n.NewResource("disk", 100)
	var done float64
	n.StartFlow(1000, []*Resource{net, disk}, Options{}, Func(func() { done = e.Now() }), 0)
	e.Run()
	if !approx(done, 10, eps) {
		t.Errorf("serial path flow completed at %v, want 10 (disk bound)", done)
	}
}

func TestCrossTrafficOnSharedLink(t *testing.T) {
	// Two flows: A uses link1+shared, B uses shared only.
	// shared=100, link1=30. A is bottlenecked by link1 at 30,
	// B picks up the slack: 70.
	e := sim.NewEngine()
	n := NewNetwork(e)
	link1 := n.NewResource("link1", 30)
	shared := n.NewResource("shared", 100)
	var tA, tB float64
	n.StartFlow(300, []*Resource{link1, shared}, Options{}, Func(func() { tA = e.Now() }), 0)
	n.StartFlow(700, []*Resource{shared}, Options{}, Func(func() { tB = e.Now() }), 0)
	e.Run()
	if !approx(tA, 10, eps) || !approx(tB, 10, eps) {
		t.Errorf("completion times %v, %v; want 10, 10", tA, tB)
	}
}

func TestLatencyDelaysStart(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	r := n.NewResource("link", 100)
	var done float64
	n.StartFlow(1000, []*Resource{r}, Options{Latency: 5}, Func(func() { done = e.Now() }), 0)
	e.Run()
	if !approx(done, 15, eps) {
		t.Errorf("latency flow completed at %v, want 15", done)
	}
}

func TestZeroAmountCompletesAfterLatency(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	var done float64 = -1
	n.StartFlow(0, nil, Options{Latency: 2}, Func(func() { done = e.Now() }), 0)
	e.Run()
	if !approx(done, 2, eps) {
		t.Errorf("zero-amount flow completed at %v, want 2", done)
	}
}

func TestCallbackNeverSynchronous(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	sync := true
	n.StartFlow(0, nil, Options{}, Func(func() { _ = sync }), 0)
	returned := false
	n.StartFlow(0, nil, Options{}, Func(func() {
		if !returned {
			t.Error("callback ran synchronously from StartFlow")
		}
	}), 0)
	returned = true
	e.Run()
}

func TestCancelSpeedsUpRemaining(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	r := n.NewResource("link", 100)
	cancelled := n.StartFlow(10000, []*Resource{r}, Options{}, Func(func() {
		t.Error("cancelled flow's callback ran")
	}), 0)
	var done float64
	n.StartFlow(1000, []*Resource{r}, Options{}, Func(func() { done = e.Now() }), 0)
	e.After(5, func() { n.Cancel(cancelled) })
	e.Run()
	// 0-5s at 50 u/s (250 done), then 750 left at 100 u/s → 5+7.5 = 12.5.
	if !approx(done, 12.5, eps) {
		t.Errorf("survivor completed at %v, want 12.5", done)
	}
	if !ended(n, cancelled) {
		t.Error("cancelled flow not marked done")
	}
}

func TestCancelDuringLatency(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	r := n.NewResource("link", 100)
	f := n.StartFlow(1000, []*Resource{r}, Options{Latency: 10}, Func(func() {
		t.Error("cancelled latent flow's callback ran")
	}), 0)
	e.After(1, func() { n.Cancel(f) })
	e.Run()
	if n.ActiveFlows() != 0 {
		t.Errorf("ActiveFlows() = %d, want 0", n.ActiveFlows())
	}
}

func TestProcessedAccounting(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	r := n.NewResource("link", 100)
	n.StartFlow(300, []*Resource{r}, Options{}, nil, 0)
	n.StartFlow(700, []*Resource{r}, Options{}, nil, 0)
	e.Run()
	if !approx(r.Processed(), 1000, 1e-6) {
		t.Errorf("Processed() = %v, want 1000", r.Processed())
	}
}

// TestProcessedCancelledFlow: a flow cancelled mid-transfer charges
// exactly the amount it settled: here 50 u/s for 5 s beside a survivor
// that then runs alone.
func TestProcessedCancelledFlow(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	r := n.NewResource("link", 100)
	cancelled := n.StartFlow(10000, []*Resource{r}, Options{}, nil, 0)
	n.StartFlow(1000, []*Resource{r}, Options{}, nil, 0)
	e.At(5, func() {
		n.Cancel(cancelled)
		if got := r.Processed(); got != 500 {
			t.Errorf("Processed() after the cancel = %v, want 500", got)
		}
	})
	e.Run()
	if got := r.Processed(); got != 1250 {
		t.Errorf("Processed() = %v, want 250 from the cancelled flow and 1000 from the survivor", got)
	}
}

// TestProcessedInstantFlows: a zero-size flow, and an instantaneous flow
// cancelled before its completion event, charge nothing.
func TestProcessedInstantFlows(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	r := n.NewResource("link", 100)
	n.StartFlow(0, []*Resource{r}, Options{}, nil, 0)
	h := n.StartFlow(0, []*Resource{r}, Options{}, Func(func() {
		t.Error("cancelled instantaneous flow's callback ran")
	}), 0)
	n.Cancel(h)
	e.Run()
	if got := r.Processed(); math.Float64bits(got) != 0 {
		t.Errorf("Processed() = %v, want +0", got)
	}
}

// TestProcessedMidRun: Processed includes the progress of flows still in
// flight. When the 300-unit flow finishes at t=6, the 700-unit one has
// moved 300 as well.
func TestProcessedMidRun(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	r := n.NewResource("link", 100)
	n.StartFlow(300, []*Resource{r}, Options{}, Func(func() {
		if got := r.Processed(); got != 600 {
			t.Errorf("Processed() at t=%v = %v, want 600", e.Now(), got)
		}
	}), 0)
	n.StartFlow(700, []*Resource{r}, Options{}, nil, 0)
	e.Run()
	if got := r.Processed(); got != 1000 {
		t.Errorf("Processed() = %v, want 1000", got)
	}
}

func TestNewResourceValidation(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	for _, c := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewResource with capacity %v did not panic", c)
				}
			}()
			n.NewResource("bad", c)
		}()
	}
}

func TestManyFlowsFairShare(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	r := n.NewResource("link", 320)
	const k = 32
	var finish [k]float64
	for i := 0; i < k; i++ {
		i := i
		n.StartFlow(100, []*Resource{r}, Options{}, Func(func() { finish[i] = e.Now() }), 0)
	}
	e.Run()
	// Each gets 10 u/s → all finish at t=10.
	for i, f := range finish {
		if !approx(f, 10, eps) {
			t.Errorf("flow %d finished at %v, want 10", i, f)
		}
	}
}

// randomScenario builds a random set of resources and flows, runs to
// completion, and returns observables for property checks.
type scenarioResult struct {
	overCapacity  bool
	allCompleted  bool
	conservation  bool
	finishedOrder []float64
}

func runRandomScenario(seed int64) scenarioResult {
	rng := rand.New(rand.NewSource(seed))
	e := sim.NewEngine()
	n := NewNetwork(e)
	nRes := 1 + rng.Intn(5)
	resources := make([]*Resource, nRes)
	for i := range resources {
		resources[i] = n.NewResource("r", 10+rng.Float64()*1000)
	}
	nFlows := 1 + rng.Intn(20)
	completed := 0
	var res scenarioResult
	totalPerResource := make(map[*Resource]float64)
	for i := 0; i < nFlows; i++ {
		// Random subset path (non-empty).
		var path []*Resource
		for _, r := range resources {
			if rng.Intn(2) == 0 {
				path = append(path, r)
			}
		}
		if len(path) == 0 {
			path = append(path, resources[rng.Intn(nRes)])
		}
		amount := 1 + rng.Float64()*10000
		opts := Options{}
		if rng.Intn(3) == 0 {
			opts.RateCap = 1 + rng.Float64()*500
		}
		if rng.Intn(4) == 0 {
			opts.Latency = rng.Float64() * 5
		}
		for _, r := range path {
			totalPerResource[r] += amount
		}
		n.StartFlow(amount, path, opts, Func(func() {
			completed++
			res.finishedOrder = append(res.finishedOrder, e.Now())
			// Invariant: at any completion, no resource is over capacity.
			for _, r := range resources {
				if n.Utilization(r) > 1+1e-9 {
					res.overCapacity = true
				}
			}
		}), 0)
	}
	e.Run()
	res.allCompleted = completed == nFlows
	res.conservation = true
	for r, want := range totalPerResource {
		if !approx(r.Processed(), want, 1e-6) {
			res.conservation = false
		}
	}
	return res
}

// Property: no resource is ever allocated beyond capacity, every flow
// completes, and each resource carries exactly the bytes of the flows that
// crossed it.
func TestRandomScenarioInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := runRandomScenario(seed)
		return !r.overCapacity && r.allCompleted && r.conservation
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the fluid model is deterministic.
func TestScenarioDeterminismQuick(t *testing.T) {
	f := func(seed int64) bool {
		a := runRandomScenario(seed)
		b := runRandomScenario(seed)
		if len(a.finishedOrder) != len(b.finishedOrder) {
			return false
		}
		for i := range a.finishedOrder {
			if a.finishedOrder[i] != b.finishedOrder[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: max-min fairness — for every active flow, either its cap binds
// or at least one resource on its path is (nearly) fully utilized.
func TestMaxMinBottleneckProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine()
		n := NewNetwork(e)
		nRes := 1 + rng.Intn(4)
		resources := make([]*Resource, nRes)
		for i := range resources {
			resources[i] = n.NewResource("r", 10+rng.Float64()*100)
		}
		var flows []Handle
		nFlows := 1 + rng.Intn(10)
		for i := 0; i < nFlows; i++ {
			path := []*Resource{resources[rng.Intn(nRes)]}
			if nRes > 1 && rng.Intn(2) == 0 {
				path = append(path, resources[rng.Intn(nRes)])
			}
			opts := Options{}
			if rng.Intn(3) == 0 {
				opts.RateCap = 1 + rng.Float64()*50
			}
			flows = append(flows, n.StartFlow(1e12, path, opts, nil, 0))
		}
		// Inspect the allocation mid-flight.
		ok := true
		e.At(1e-9, func() {
			for _, f := range flows {
				if n.Rate(f) <= 0 {
					ok = false
					continue
				}
				if n.Rate(f) >= n.flows.Live(sim.Ref(f)).rateCap*(1-1e-9) {
					continue // cap binds
				}
				bottleneck := false
				for _, r := range n.flows.Live(sim.Ref(f)).path {
					if n.Utilization(r) >= 1-1e-6 {
						bottleneck = true
						break
					}
				}
				if !bottleneck {
					ok = false
				}
			}
			e.Stop()
		})
		e.RunUntil(1)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestUtilizationReporting(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	r := n.NewResource("link", 100)
	n.StartFlow(1e6, []*Resource{r}, Options{RateCap: 25}, nil, 0)
	e.At(0.001, func() {
		if u := n.Utilization(r); !approx(u, 0.25, 1e-9) {
			t.Errorf("Utilization = %v, want 0.25", u)
		}
		e.Stop()
	})
	e.Run()
}
