package core_test

import (
	"runtime"
	"testing"

	"bbwfsim/internal/core"
	"bbwfsim/internal/genomes"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/workflow"
	"bbwfsim/internal/workloads"
)

// TestCountingTraceMemory pins the non-retaining trace sinks' memory
// contract: a finished run's Result must hold O(active tasks) trace state
// with a counting sink, not the O(events) log a retaining trace keeps. The
// run is the million-task scale configuration (counting trace plus
// scratch-lifecycle management) on a 10,000-task montage; both modes grow
// linearly in the task count, so the ratio does not depend on the size.
// The test is deliberately not parallel: the heap deltas it measures must
// not see another test's allocations.
func TestCountingTraceMemory(t *testing.T) {
	cfg := platform.Presets(8)["cori-private"]
	retained := liveRunBytes(t, cfg, nil)
	counting := liveRunBytes(t, cfg, trace.Discard)
	t.Logf("live heap after the run: %d bytes retained, %d counting", retained, counting)
	if counting*5 >= retained {
		t.Fatalf("counting trace keeps %d bytes live, not under a fifth of the retained trace's %d",
			counting, retained)
	}
}

// liveRunBytes runs the 10,000-task montage with the given trace sink (nil
// retains) and returns the heap still live after a GC, relative to before
// the run.
func liveRunBytes(t *testing.T, cfg platform.Config, sink trace.Sink) int64 {
	t.Helper()
	wf, err := workloads.Scale(workloads.ScaleSpec{Topology: "montage", Tasks: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := core.MustNewSimulator(cfg).Run(wf, core.RunOptions{
		StagedFraction: 0.5, IntermediatesToBB: true, PrePlaceInputs: true,
		EvictAfterLastRead: true, BBFallback: true, TraceSink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	// Both snapshots must see the same live workflow, or the generator's
	// garbage drowns the signal and the delta goes negative.
	runtime.KeepAlive(wf)
	runtime.KeepAlive(res)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// BenchmarkGenomesSingleRun times the 1000Genomes case-study configuration
// (full chromosome set, cori-private at 8 nodes, inputs pre-placed, half of
// them staged into the BB) through Simulator.Run; its allocs/op is the
// cold-path allocation target.
func BenchmarkGenomesSingleRun(b *testing.B) {
	wf, cfg := genomesCell()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runGenomesCell(wf, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// genomesCellBytesBudget is the heap a BenchmarkGenomesSingleRun run may
// allocate: about 15% above the 1,716,000 bytes one run allocated when it
// was pinned (go1.24, linux/amd64), leaving room for other Go releases.
// The run allocated 3,613,000 bytes before the retained trace's fixed
// chunks, the map-free replica registry, the one-pass completion batch and
// the closure-free storage ops, and 2,682,000 before flows and operations
// moved into slabs and exec's I/O phases into per-attempt cursors.
const genomesCellBytesBudget = 1_975_000

// genomesCellAllocsBudget is the number of heap objects such a run may
// allocate: about 15% above the 2,390 it allocated when pinned (go1.24,
// linux/amd64), down from 27,049 before the slab-backed flows and
// operations, from 7,128 before trace events carried typed operands
// instead of detail strings, and from 4,170 before the storage registry
// became a table indexed by file with replica lists carved from a slab.
// Most of what remains is one task record and one attempt per task, the
// simulation event heap's growth and per-run setup.
const genomesCellAllocsBudget = 2_750

// TestGenomesRunBytesBudget pins the bytes one run of the
// BenchmarkGenomesSingleRun cell allocates. With a live heap near the
// runtime's minimum, the number of GC cycles of a campaign of such runs
// scales with these bytes. The test is deliberately not parallel: the
// delta must not see another test's allocations.
func TestGenomesRunBytesBudget(t *testing.T) {
	got, _ := genomesRunAllocs(t)
	t.Logf("one run allocated %d bytes (budget %d)", got, genomesCellBytesBudget)
	if got > genomesCellBytesBudget {
		t.Fatalf("one run allocated %d bytes, over the %d budget", got, genomesCellBytesBudget)
	}
}

// TestGenomesRunAllocsBudget pins the heap objects one run of the
// BenchmarkGenomesSingleRun cell allocates: every one is work for the
// allocator and the collector, so a per-operation allocation creeping back
// into the flow, storage or exec path shows here. Not parallel, like
// TestGenomesRunBytesBudget.
func TestGenomesRunAllocsBudget(t *testing.T) {
	_, got := genomesRunAllocs(t)
	t.Logf("one run allocated %d objects (budget %d)", got, genomesCellAllocsBudget)
	if got > genomesCellAllocsBudget {
		t.Fatalf("one run allocated %d objects, over the %d budget", got, genomesCellAllocsBudget)
	}
}

// genomesRunAllocs returns the bytes and objects one warmed-up run of the
// BenchmarkGenomesSingleRun cell allocates.
func genomesRunAllocs(t *testing.T) (bytes, objects uint64) {
	t.Helper()
	wf, cfg := genomesCell()
	if err := runGenomesCell(wf, cfg); err != nil { // warm-up
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := runGenomesCell(wf, cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

func genomesCell() (*workflow.Workflow, platform.Config) {
	return genomes.MustNew(genomes.Params{Chromosomes: genomes.DefaultChromosomes}),
		platform.Presets(8)["cori-private"]
}

func runGenomesCell(wf *workflow.Workflow, cfg platform.Config) error {
	_, err := core.MustNewSimulator(cfg).Run(wf, core.RunOptions{
		PrePlaceInputs: true, StagedFraction: 0.5,
	})
	return err
}
