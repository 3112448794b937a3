package experiments

import (
	"math"
	"testing"

	"bbwfsim/internal/core"
	"bbwfsim/internal/metrics"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/swarp"
)

// TestExecutedSinkMatchesMetrics runs every quick point of the adaptive
// and resilience-ckpt experiments with metrics on, where each run checks
// its executedSink total against sumFamily over its snapshot bit for bit
// (executedRun.check) and fails the experiment on a mismatch.
func TestExecutedSinkMatchesMetrics(t *testing.T) {
	snaps := 0
	o := Options{Quick: true, Seed: 1, Metrics: func(*metrics.Snapshot) { snaps++ }}
	for _, run := range []func(Options) ([]*Table, error){RunAdaptive, RunResilienceCkpt} {
		if _, err := run(o); err != nil {
			t.Fatal(err)
		}
	}
	if snaps != 2 {
		t.Fatalf("%d metrics snapshots emitted, want 2", snaps)
	}
}

// TestExecutedCheckDetectsMismatch: a snapshot one ulp off the sink's
// total fails the check.
func TestExecutedCheckDetectsMismatch(t *testing.T) {
	wf := swarp.MustNew(swarp.Params{Pipelines: 2, CoresPerTask: 8})
	sim := core.MustNewSimulator(platform.Cori(2, platform.BBPrivate))
	r, err := runExecuted(sim, wf, core.RunOptions{StagedFraction: 1, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.executed <= 0 {
		t.Fatalf("executed compute %v, want positive", r.executed)
	}
	if err := r.check(); err != nil {
		t.Fatal(err)
	}
	for i, s := range r.res.Metrics.Counters {
		if s.Family == metrics.ComputeExecutedSecondsTotal {
			r.res.Metrics.Counters[i].Value = math.Nextafter(s.Value, math.Inf(1))
			break
		}
	}
	if r.check() == nil {
		t.Fatal("a tampered compute_executed_seconds_total passed the check")
	}
}
