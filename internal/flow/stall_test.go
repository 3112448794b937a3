package flow

import (
	"math"
	"testing"

	"bbwfsim/internal/sim"
)

// TestNoStallAtLargeNow builds the clock stall of a long run: at now =
// 3.36e8 s, where an ulp of time is 2^-24 s, a lone flow's first
// completion lands on the representable instant just before its exact
// end. Its residue is above the completion tolerance, but its delay at
// its rate is under half an ulp, so now+delay rounds back to now. The
// flow must still finish, one ulp later. The engine is stepped under an
// event budget, so a solver that re-arms at the same instant fails the
// test instead of spinning.
func TestNoStallAtLargeNow(t *testing.T) {
	// Variables, not constants, so these float64 operations round as the
	// solver's do.
	start, amount, rate := 3.36e8, 1000.03, 1000.0
	// The construction: the first completion's instant, and the residue
	// a flow settled to it leaves.
	first := start + amount/rate
	residue := amount - float64(rate*(first-start))
	if residue <= completionTolerance(amount) || first+residue/rate != first {
		t.Fatalf("no stall at %v: residue %g, tolerance %g, delay %g", first, residue, completionTolerance(amount), residue/rate)
	}

	e := sim.NewEngine()
	n := NewNetwork(e)
	r := n.NewResource("link", rate)
	done := -1.0
	e.At(start, func() {
		n.StartFlow(amount, []*Resource{r}, Options{}, Func(func() { done = e.Now() }), 0)
	})
	const budget = 100
	for steps := 0; done < 0; steps++ {
		if steps == budget {
			t.Fatalf("flow not finished after %d events; the clock stalled at %v", budget, e.Now())
		}
		if !e.Step() {
			t.Fatal("event queue drained with the flow unfinished")
		}
	}
	if want := math.Nextafter(first, math.Inf(1)); done != want {
		t.Errorf("flow finished at %v, want %v, one ulp after the stalled completion at %v", done, want, first)
	}
}
