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

// TestCountingTraceMemory pins the default trace's memory contract: a
// finished run's Result must hold O(active tasks) trace state without a
// sink, not the O(events) log a trace.Retain run keeps. The
// run is the million-task scale configuration (counting trace plus
// scratch-lifecycle management) on a 10,000-task montage; both modes grow
// linearly in the task count, so the ratio does not depend on the size.
// The test is deliberately not parallel: the heap deltas it measures must
// not see another test's allocations.
func TestCountingTraceMemory(t *testing.T) {
	cfg := platform.Presets(8)["cori-private"]
	retained := liveRunBytes(t, cfg, trace.Retain)
	counting := liveRunBytes(t, cfg, nil)
	t.Logf("live heap after the run: %d bytes retained, %d counting", retained, counting)
	if counting*5 >= retained {
		t.Fatalf("counting trace keeps %d bytes live, not under a fifth of the retained trace's %d",
			counting, retained)
	}
}

// liveRunBytes runs the 10,000-task montage with the given trace sink (nil
// counts) and returns the heap still live after a GC, relative to before
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
		if err := runGenomesCell(wf, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// genomesCellBytesBudget is the heap a BenchmarkGenomesSingleRun run may
// allocate with its default, counting trace: about 15% above the 801,500
// bytes one run allocated when it was pinned (go1.24, linux/amd64),
// leaving room for other Go releases. The run allocated 3,613,000 bytes
// before the retained trace's fixed chunks, the map-free replica
// registry, the one-pass completion batch and the closure-free storage
// ops, 2,682,000 before flows and operations moved into slabs and exec's
// I/O phases into per-attempt cursors, 1,918,000 while the default trace
// still retained every event and task record, and 832,200 before the
// placement set was indexed by file and the registry's first replica
// chunk was sized from the workflow.
const genomesCellBytesBudget = 922_000

// genomesCellRetainedBytesBudget is the heap the same run may allocate
// with trace.Retain, pinned while retaining was the default: about 15%
// above the 1,716,000 bytes it allocated before trace events grew to 88
// bytes. It allocated 1,918,000 after that, and 1,855,800 once the
// storage registry's table was sized from the workflow's file count.
const genomesCellRetainedBytesBudget = 1_975_000

// genomesCellAllocsBudget is the number of heap objects a counting run of
// the cell may allocate: about 15% above the 2,143 it allocated when
// pinned (go1.24, linux/amd64), down from 27,049 before the slab-backed
// flows and operations, from 7,128 before trace events carried typed
// operands instead of detail strings, from 4,170 before the storage
// registry became a table indexed by file with replica lists carved from
// a slab, from 2,390 while the default trace retained, and from 2,353
// before the simulation events moved into a slab and the placement set's
// ID map became a per-file index. Most of what remains is one task record
// and one attempt per task, the event slab's growth and per-run setup.
const genomesCellAllocsBudget = 2_465

// TestGenomesRunBytesBudget pins the bytes one run of the
// BenchmarkGenomesSingleRun cell allocates. With a live heap near the
// runtime's minimum, the number of GC cycles of a campaign of such runs
// scales with these bytes. The test is deliberately not parallel: the
// delta must not see another test's allocations.
func TestGenomesRunBytesBudget(t *testing.T) {
	got, _ := genomesRunAllocs(t, nil)
	t.Logf("one run allocated %d bytes (budget %d)", got, genomesCellBytesBudget)
	if got > genomesCellBytesBudget {
		t.Fatalf("one run allocated %d bytes, over the %d budget", got, genomesCellBytesBudget)
	}
}

// TestGenomesRetainedRunBytesBudget pins the bytes of the same run with
// its trace retained (trace.Retain), the cost of the retaining sink's
// chunks and task records on top of a counting run.
func TestGenomesRetainedRunBytesBudget(t *testing.T) {
	got, _ := genomesRunAllocs(t, trace.Retain)
	t.Logf("one retained run allocated %d bytes (budget %d)", got, genomesCellRetainedBytesBudget)
	if got > genomesCellRetainedBytesBudget {
		t.Fatalf("one retained run allocated %d bytes, over the %d budget", got, genomesCellRetainedBytesBudget)
	}
}

// TestGenomesRunAllocsBudget pins the heap objects one run of the
// BenchmarkGenomesSingleRun cell allocates: every one is work for the
// allocator and the collector, so a per-operation allocation creeping back
// into the flow, storage or exec path shows here. Not parallel, like
// TestGenomesRunBytesBudget.
func TestGenomesRunAllocsBudget(t *testing.T) {
	_, got := genomesRunAllocs(t, nil)
	t.Logf("one run allocated %d objects (budget %d)", got, genomesCellAllocsBudget)
	if got > genomesCellAllocsBudget {
		t.Fatalf("one run allocated %d objects, over the %d budget", got, genomesCellAllocsBudget)
	}
}

// genomesRunAllocs returns the bytes and objects one warmed-up run of the
// BenchmarkGenomesSingleRun cell allocates with the given trace sink.
func genomesRunAllocs(t *testing.T, sink trace.Sink) (bytes, objects uint64) {
	t.Helper()
	wf, cfg := genomesCell()
	if err := runGenomesCell(wf, cfg, sink); err != nil { // warm-up
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := runGenomesCell(wf, cfg, sink); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

func genomesCell() (*workflow.Workflow, platform.Config) {
	return genomes.MustNew(genomes.Params{Chromosomes: genomes.DefaultChromosomes}),
		platform.Presets(8)["cori-private"]
}

func runGenomesCell(wf *workflow.Workflow, cfg platform.Config, sink trace.Sink) error {
	_, err := core.MustNewSimulator(cfg).Run(wf, core.RunOptions{
		PrePlaceInputs: true, StagedFraction: 0.5, TraceSink: sink,
	})
	return err
}
