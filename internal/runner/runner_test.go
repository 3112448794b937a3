package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestJobsResolution(t *testing.T) {
	if got := Jobs(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Jobs(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Jobs(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Jobs(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Jobs(7); got != 7 {
		t.Fatalf("Jobs(7) = %d, want 7", got)
	}
}

func TestMapOrderedResults(t *testing.T) {
	for _, jobs := range []int{1, 2, 8, 64} {
		got, err := Map(context.Background(), jobs, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if len(got) != 100 {
			t.Fatalf("jobs=%d: got %d results", jobs, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("jobs=%d: out[%d] = %d, want %d", jobs, i, v, i*i)
			}
		}
	}
}

func TestMapEmptyAndNegative(t *testing.T) {
	got, err := Map(context.Background(), 4, 0, func(int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("Map(_, 0) = %v, %v; want nil, nil", got, err)
	}
	if _, err := Map(context.Background(), 4, -1, func(int) (int, error) { return 0, nil }); err == nil {
		t.Fatal("Map(_, -1) accepted a negative point count")
	}
}

// TestMapErrorMatchesSerial: the error returned at any -j is the one serial
// execution would have returned — the smallest erring index.
func TestMapErrorMatchesSerial(t *testing.T) {
	errAt := func(bad ...int) func(int) (int, error) {
		isBad := map[int]bool{}
		for _, b := range bad {
			isBad[b] = true
		}
		return func(i int) (int, error) {
			if isBad[i] {
				return 0, fmt.Errorf("point %d failed", i)
			}
			return i, nil
		}
	}
	want := "point 13 failed"
	for _, jobs := range []int{1, 3, 16} {
		_, err := Map(context.Background(), jobs, 50, errAt(41, 13, 29))
		if err == nil || err.Error() != want {
			t.Fatalf("jobs=%d: err = %v, want %q", jobs, err, want)
		}
	}
}

// TestMapStopsIssuingAfterError: once a call errs, workers stop drawing new
// indices (in-flight calls still finish).
func TestMapStopsIssuingAfterError(t *testing.T) {
	var calls atomic.Int64
	sentinel := errors.New("boom")
	_, err := Map(context.Background(), 2, 10_000, func(i int) (int, error) {
		calls.Add(1)
		if i == 0 {
			return 0, sentinel
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if n := calls.Load(); n >= 10_000 {
		t.Fatalf("all %d points ran despite an error at point 0", n)
	}
}

func TestMapPanicPropagates(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("jobs=%d: panic did not propagate", jobs)
				}
				if s, ok := r.(string); !ok || s != "kaboom" {
					t.Fatalf("jobs=%d: recovered %v, want \"kaboom\"", jobs, r)
				}
			}()
			_, _ = Map(context.Background(), jobs, 8, func(i int) (int, error) {
				if i == 5 {
					panic("kaboom")
				}
				return i, nil
			})
		}()
	}
}

// TestMapUsesWorkers: with jobs=k and k points that each block until all k
// have started, completion proves k calls genuinely run concurrently.
func TestMapUsesWorkers(t *testing.T) {
	const k = 4
	var started atomic.Int64
	_, err := Map(context.Background(), k, k, func(i int) (int, error) {
		started.Add(1)
		for started.Load() < k {
			runtime.Gosched()
		}
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMapDeterministicAtAnyJobs is the package's core promise stated as a
// property: identical results for jobs=1 and jobs=GOMAXPROCS on a
// compute-heavy point function.
func TestMapDeterministicAtAnyJobs(t *testing.T) {
	point := func(i int) (float64, error) {
		v := float64(i + 1)
		for k := 0; k < 1000; k++ {
			v = v*1.0000001 + float64(k%7)
		}
		return v, nil
	}
	serial, err := Map(context.Background(), 1, 64, point)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Map(context.Background(), 0, 64, point)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("out[%d]: serial %v != parallel %v", i, serial[i], parallel[i])
		}
	}
}

// --- cancellation ----------------------------------------------------------

// TestMapCtxMatchesMapWhileLive pins that a live cancellable context changes
// nothing: same results, same smallest-index error semantics as under
// context.Background(), at serial and parallel worker counts.
func TestMapCtxMatchesMapWhileLive(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	point := func(i int) (int, error) { return i * i, nil }
	for _, jobs := range []int{1, 4} {
		got, err := Map(ctx, jobs, 20, point)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		want, _ := Map(context.Background(), 1, 20, point)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("jobs=%d out[%d] = %d, want %d", jobs, i, got[i], want[i])
			}
		}
	}

	sentinel := errors.New("boom")
	for _, jobs := range []int{1, 4} {
		_, err := Map(ctx, jobs, 32, func(i int) (int, error) {
			if i >= 7 {
				return 0, fmt.Errorf("point %d: %w", i, sentinel)
			}
			return i, nil
		})
		if err == nil || !errors.Is(err, sentinel) || err.Error() != "point 7: boom" {
			t.Fatalf("jobs=%d: err = %v, want the smallest-index error \"point 7: boom\"", jobs, err)
		}
	}
}

// TestMapCtxPreCancelled pins that a dead context runs nothing and returns
// ctx.Err().
func TestMapCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, jobs := range []int{1, 4} {
		calls := atomic.Int64{}
		_, err := Map(ctx, jobs, 16, func(i int) (int, error) {
			calls.Add(1)
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("jobs=%d: err = %v, want context.Canceled", jobs, err)
		}
		if n := calls.Load(); n != 0 {
			t.Fatalf("jobs=%d: %d point calls ran under a pre-cancelled context", jobs, n)
		}
	}
}

// TestMapCtxErrorOutranksCancellation pins that a real point failure wins
// over the cancellation racing with it: serial-equivalent smallest-index
// error semantics survive early cancellation.
func TestMapCtxErrorOutranksCancellation(t *testing.T) {
	sentinel := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	_, err := Map(ctx, 4, 64, func(i int) (int, error) {
		if i == 2 {
			cancel() // cancel from inside the failing region…
			return 0, sentinel
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the point error to outrank the cancellation", err)
	}
}

// TestMapCtxCancelStopsDispatchAndLeaksNothing is the drain contract: after
// cancellation Map finishes in-flight points, stops handing out new
// indices, returns ctx.Err(), and leaves no worker goroutine behind. The
// goroutine accounting uses a strict before/after barrier: Map must not
// return until every worker is done, so the count settles immediately after
// (a bounded retry loop absorbs unrelated runtime goroutines winding down).
func TestMapCtxCancelStopsDispatchAndLeaksNothing(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	started := atomic.Int64{}
	finished := atomic.Int64{}
	release := make(chan struct{})
	go func() {
		// Cancel once the first wave of workers is mid-flight.
		for started.Load() < 4 {
			runtime.Gosched()
		}
		cancel()
		close(release)
	}()
	_, err := Map(ctx, 4, 1000, func(i int) (int, error) {
		started.Add(1)
		<-release // hold the first wave in flight until cancellation lands
		finished.Add(1)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Every point that started must have finished before Map returned —
	// cancellation abandons pending indices, never in-flight ones.
	if s, f := started.Load(), finished.Load(); s != f {
		t.Fatalf("%d points started but only %d finished before Map returned", s, f)
	}
	if s := started.Load(); s >= 1000 {
		t.Fatalf("all %d points ran; cancellation never stopped dispatch", s)
	}
	for attempt := 0; ; attempt++ {
		if runtime.NumGoroutine() <= before {
			break
		}
		if attempt > 1000 {
			t.Fatalf("goroutines: %d before, %d after cancellation — workers leaked",
				before, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
}
