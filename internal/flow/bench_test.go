package flow

import (
	"testing"

	"bbwfsim/internal/sim"
)

// BenchmarkConcurrentFlows measures the progressive-filling recompute cost
// with many flows sharing one bottleneck: each arrival and departure
// triggers a full max-min reallocation.
func BenchmarkConcurrentFlows(b *testing.B) {
	for _, k := range []int{8, 64, 256} {
		k := k
		b.Run(byteCount(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := sim.NewEngine()
				n := NewNetwork(e)
				link := n.NewResource("link", 1000)
				disk := n.NewResource("disk", 800)
				done := 0
				for j := 0; j < k; j++ {
					// Staggered sizes so completions interleave and force
					// k reallocations.
					n.StartFlow(float64(100+j), []*Resource{link, disk}, Options{}, Func(func() { done++ }), 0)
				}
				e.Run()
				if done != k {
					b.Fatalf("completed %d of %d flows", done, k)
				}
			}
		})
	}
}

// BenchmarkFlowChurn measures steady-state arrival/departure churn: a new
// flow starts whenever one finishes, keeping a constant concurrency.
func BenchmarkFlowChurn(b *testing.B) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	link := n.NewResource("link", 1000)
	started := 0
	var launch func()
	launch = func() {
		if started >= b.N {
			return
		}
		started++
		n.StartFlow(50, []*Resource{link}, Options{}, Func(launch), 0)
	}
	for i := 0; i < 16 && i < b.N; i++ {
		launch()
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkSparsePlatform models the shape real campaigns produce: a
// platform with many resources (per-node links and disks, like the 8-node
// 1000Genomes setting) where each flow crosses only a short path and most
// resources are idle at any instant. The touched-set recompute visits only
// crossed resources, so cost tracks active flows, not platform size.
func BenchmarkSparsePlatform(b *testing.B) {
	const nodes = 32
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		n := NewNetwork(e)
		links := make([]*Resource, nodes)
		disks := make([]*Resource, nodes)
		for j := 0; j < nodes; j++ {
			links[j] = n.NewResource("link", 1000)
			disks[j] = n.NewResource("disk", 800)
		}
		done := 0
		// Four concurrent flows per wave, each on its own node pair, with
		// staggered sizes so completions interleave.
		for j := 0; j < 4*nodes; j++ {
			src := j % nodes
			n.StartFlow(float64(100+j), []*Resource{links[src], disks[(src+1)%nodes]}, Options{}, Func(func() { done++ }), 0)
		}
		e.Run()
		if done != 4*nodes {
			b.Fatalf("completed %d of %d flows", done, 4*nodes)
		}
	}
}

// TestRecomputeZeroAllocs asserts the hot path's steady state allocates
// nothing: once the Network's scratch slices have grown to fit, recompute
// reuses them on every subsequent solve.
func TestRecomputeZeroAllocs(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	link := n.NewResource("link", 1000)
	disk := n.NewResource("disk", 800)
	// Warm up the scratch: a first wave grows touched/finished to capacity.
	for j := 0; j < 8; j++ {
		n.StartFlow(float64(10+j), []*Resource{link, disk}, Options{}, nil, 0)
	}
	e.Run()
	// Steady state: flows already active, measure recompute alone.
	// (resolve is excluded: arming the next-completion event may take a
	// fresh event slot; the zero-allocation target is the rate recomputation
	// scratch. TestInvalidateZeroAllocs covers moving the pending slot.)
	for j := 0; j < 8; j++ {
		n.StartFlow(1e12, []*Resource{link, disk}, Options{}, nil, 0)
	}
	allocs := testing.AllocsPerRun(100, func() {
		n.recompute()
	})
	if allocs != 0 {
		t.Fatalf("recompute allocated %.1f times per run; want 0", allocs)
	}
	// A stale least-remaining fold makes recompute rescan the active
	// flows, also without allocating.
	rescans := n.rescans
	allocs = testing.AllocsPerRun(100, func() {
		n.stale = true
		n.recompute()
	})
	if allocs != 0 || n.rescans == rescans {
		t.Fatalf("rescanning recompute allocated %.1f times per run (%d rescans); want 0", allocs, n.rescans-rescans)
	}
}

func byteCount(k int) string {
	switch k {
	case 8:
		return "flows=8"
	case 64:
		return "flows=64"
	default:
		return "flows=256"
	}
}

// TestClassChurnZeroAllocs asserts that class bookkeeping allocates
// nothing once warmed: each cycle, the flows of one class finish and
// restart on the same path slice, so the class empties and refills, and a
// flow starts on a path that repeats a resource, which its class
// deduplicates into storage the class slot keeps.
func TestClassChurnZeroAllocs(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	link := n.NewResource("link", 1000)
	disk := n.NewResource("disk", 800)
	shared := []*Resource{link, disk}
	looped := []*Resource{link, disk, link}
	n.StartFlow(1e15, []*Resource{disk}, Options{}, nil, 0) // outlives every cycle
	cycle := func() {
		for j := 0; j < 4; j++ {
			n.StartFlow(float64(100+j), shared, Options{}, nil, 0)
		}
		n.StartFlow(50, looped, Options{RateCap: 100}, nil, 0)
		e.RunUntil(e.Now() + 10)
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a class churn cycle allocated %.1f times; want 0", allocs)
	}
	if n.ActiveFlows() != 1 || len(n.inUse) != 1 {
		t.Fatalf("%d active flows in %d classes after the cycles; want the one long flow", n.ActiveFlows(), len(n.inUse))
	}
}
