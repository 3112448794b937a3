// Package runner is the campaign executor: it fans independent simulation
// runs (configuration × seed points) out across worker goroutines while
// keeping output bit-identical to serial execution.
//
// The discrete-event kernel (internal/sim, internal/flow) and everything
// built on it are strictly single-threaded by design — bbvet's
// no-goroutines-in-kernel rule enforces that — so concurrency in this
// repository lives exclusively here, one layer above the kernel. The
// contract that makes that safe and deterministic:
//
//   - every run point owns its private simulation state: the point function
//     builds its own sim.Engine, RNG streams, platform, and storage system
//     internally (core.Simulator.Run and testbed.Runner.Run already do),
//     and nothing of that state crosses a worker boundary — this package is
//     generic and never sees an engine (bbvet's runner-isolation rule);
//   - shared inputs (workflows, platform configs, profiles) are read-only
//     during runs;
//   - results are collected by submission index, so tables, CSVs, and
//     traces assemble in submission order no matter which worker finished
//     first.
//
// Under those rules the only thing parallelism changes is wall-clock time:
// Map(ctx, 1, n, fn) and Map(ctx, j, n, fn) return byte-for-byte identical
// results. A caller that folds the results (floating-point sums, snapshot
// merges) folds them in index order after Map returns, which keeps even
// non-commutative accumulations bit-identical at any jobs value.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Jobs resolves a worker-count flag: values < 1 (the "pick for me" default)
// become GOMAXPROCS, everything else passes through.
func Jobs(j int) int {
	if j < 1 {
		//bbvet:allow determinism-taint -- worker count only sets fan-out width; Map merges results by submission index, so outputs are bit-identical at any parallelism
		return runtime.GOMAXPROCS(0)
	}
	return j
}

// Map calls fn(i) once for every i in [0, n) and returns the results in
// index order, fanning calls across min(Jobs(jobs), n) workers. It is the
// package's one fan-out entry point: callers that outlive a single
// campaign — a serving daemon with per-request deadlines, a drain sequence
// — pass a context that can be cancelled, and sweeps that run to the end
// pass one that never is. A point function that needs the context closes
// over it.
//
// Error semantics match serial execution wherever serial execution is
// well-defined: with one worker the calls run on the calling goroutine in
// index order and the first error aborts the loop immediately, exactly like
// the hand-written sweep loops this package replaced. With jobs > 1,
// workers stop drawing new indices once any call errs, every in-flight call
// finishes, and the error with the smallest index is returned — so a sweep
// whose first failure is at index k reports that same failure at any -j.
//
// A panic in fn is captured and re-raised on the calling goroutine (again
// the smallest-index panic when several workers trip at once).
//
// Cancellation:
//
//   - once ctx is done, workers stop drawing new indices. Calls already in
//     flight run to completion — a simulation point is finite and owns
//     private state, so abandoning it mid-run is never required for safety;
//   - Map returns only after every in-flight call has finished, so the
//     caller observes no goroutine left running, and no fn call can touch
//     the results after Map returns;
//   - the returned error is the smallest-index fn error when one exists
//     (a real failure outranks the cancellation that raced with it);
//     otherwise ctx.Err() when cancellation prevented any index from
//     running. A fully completed sweep returns its results even if ctx
//     fired after the last index was handed out.
func Map[T any](ctx context.Context, jobs, n int, fn func(i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("runner: negative point count %d", n)
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]T, n)
	workers := Jobs(jobs)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Serial fast path: identical call sequence, allocation profile,
		// and abort behavior to the pre-runner sweep loops.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	var (
		next      atomic.Int64 // next index to hand out
		stop      atomic.Bool  // set once any call errs or panics
		cancelled atomic.Bool  // an index was skipped because ctx was done
		mu        sync.Mutex   // guards firstErr/firstPanic bookkeeping
		wg        sync.WaitGroup
		errIdx    = n // smallest erring index seen so far
		panIdx    = n // smallest panicking index seen so far
		firstEr   error
		firstPv   any
	)
	work := func() {
		defer wg.Done()
		for {
			i := int(next.Add(1)) - 1
			if i >= n || stop.Load() {
				return
			}
			if ctx.Err() != nil {
				cancelled.Store(true)
				return
			}
			v, err := func() (v T, err error) {
				defer func() {
					if r := recover(); r != nil {
						stop.Store(true)
						mu.Lock()
						if i < panIdx {
							panIdx, firstPv = i, r
						}
						mu.Unlock()
						err = fmt.Errorf("runner: point %d panicked", i)
					}
				}()
				return fn(i)
			}()
			if err != nil {
				stop.Store(true)
				mu.Lock()
				if i < errIdx {
					errIdx, firstEr = i, err
				}
				mu.Unlock()
				continue
			}
			out[i] = v
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go work()
	}
	wg.Wait()
	if panIdx < n {
		panic(firstPv)
	}
	if errIdx < n {
		return nil, firstEr
	}
	if cancelled.Load() {
		return nil, ctx.Err()
	}
	return out, nil
}
