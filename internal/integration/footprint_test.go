package integration

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"bbwfsim/internal/core"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/workflow"
	"bbwfsim/internal/workloads"
)

// Footprint budgets of a 20,000-task generated montage run as the scale
// experiment configures it: the bytes per task the graph retains, and the
// live heap at the midpoint of its run. Each is the value measured on
// amd64 with go1.24, plus 10%.
const (
	graphBytesPerTask = 344 * 1.10
	midRunLiveBytes   = 8.23e6 * 1.10
)

// raceBuild reports whether the test binary was built with -race, whose
// instrumentation inflates the heap.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// liveHeap returns the heap's live bytes after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// midpointSink counts a run's events and, at event at, measures the live
// heap.
type midpointSink struct {
	n, at int
	live  uint64
}

func (s *midpointSink) Emit(trace.Event) {
	if s.n++; s.n == s.at {
		s.live = liveHeap()
	}
}

func (s *midpointSink) Close() error { return nil }

// TestFootprint pins what a large run keeps resident: the packed task
// layout, the graph's bytes per task, and the live heap halfway through
// the run, which holds the graph and the run's per-task and per-file
// state. It measures the whole process heap, so it does not run in
// parallel, and it is skipped under -race.
func TestFootprint(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector inflates the heap")
	}
	if got := unsafe.Sizeof(workflow.Task{}); got != 128 {
		t.Errorf("workflow.Task is %d bytes, want 128 (one allocator size class)", got)
	}
	const tasks = 20000
	spec := workloads.ScaleSpec{Topology: "montage", Tasks: tasks, Seed: 1}
	opts := core.RunOptions{
		StagedFraction:     0.5,
		IntermediatesToBB:  true,
		PrePlaceInputs:     true,
		EvictAfterLastRead: true,
		BBFallback:         true,
	}
	sim := core.MustNewSimulator(platform.Cori(8, platform.BBPrivate))

	// A first run counts the events, so the second can stop at the
	// midpoint.
	wf, err := workloads.Scale(spec)
	if err != nil {
		t.Fatal(err)
	}
	count := &midpointSink{}
	opts.TraceSink = count
	if _, err := sim.Run(wf, opts); err != nil {
		t.Fatal(err)
	}
	wf = nil

	base := liveHeap()
	wf, err = workloads.Scale(spec)
	if err != nil {
		t.Fatal(err)
	}
	graph := liveHeap() - base
	mid := &midpointSink{at: count.n / 2}
	opts.TraceSink = mid
	if _, err := sim.Run(wf, opts); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(wf)
	perTask := float64(graph) / float64(len(wf.Tasks()))
	live := float64(mid.live - base)
	t.Logf("graph %.1f bytes per task; mid-run live heap %.0f bytes (%d events)", perTask, live, count.n)
	if perTask > graphBytesPerTask {
		t.Errorf("the graph retains %.1f bytes per task, budget %.1f", perTask, graphBytesPerTask)
	}
	if live > midRunLiveBytes {
		t.Errorf("mid-run live heap %.0f bytes, budget %.0f", live, midRunLiveBytes)
	}
}
