package core

import (
	"fmt"
	"math"
	"testing"

	"bbwfsim/internal/adapt"
	"bbwfsim/internal/ckpt"
	"bbwfsim/internal/exec"
	"bbwfsim/internal/faults"
	"bbwfsim/internal/genomes"
	"bbwfsim/internal/metrics"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/sim"
	"bbwfsim/internal/storage"
	"bbwfsim/internal/swarp"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

// TestMetricsOptInEquivalent: collecting metrics observes a run without
// steering it. A run with RunOptions.Metrics and one without agree bit
// for bit on everything but Result.Metrics, which is nil exactly when it
// was not asked for — on fault-free, faulty, checkpointed and adaptive
// runs alike.
func TestMetricsOptInEquivalent(t *testing.T) {
	retry := exec.RetryPolicy{MaxRetries: 100, Backoff: exec.BackoffExponential,
		BaseDelay: 2, MaxDelay: 60, Jitter: 0.25, Seed: 13}
	cases := []struct {
		name string
		cfg  platform.Config
		// setup returns a fresh workflow and options (fault models are
		// single-use); fired reports that the case's mechanism ran.
		setup func(t *testing.T) (*workflow.Workflow, RunOptions)
		fired func(FaultStats) bool
	}{{
		name: "fault-free",
		cfg:  platform.Cori(1, platform.BBStriped),
		setup: func(t *testing.T) (*workflow.Workflow, RunOptions) {
			return swarp.MustNew(swarp.Params{Pipelines: 2}), RunOptions{StagedFraction: 0.5}
		},
		fired: func(f FaultStats) bool { return f == FaultStats{} },
	}, {
		name: "faulty",
		cfg:  platform.Cori(4, platform.BBPrivate),
		setup: func(t *testing.T) (*workflow.Workflow, RunOptions) {
			return genomes.MustNew(genomes.Params{Chromosomes: 3}), RunOptions{
				PrePlaceInputs: true, StagedFraction: 1, IntermediatesToBB: true,
				Faults: mustFaults(t, faults.Config{
					Seed:        41,
					TaskCrash:   &faults.CrashProcess{Arrival: faults.Exp(80), Budget: 8},
					NodeFailure: &faults.NodeProcess{Arrival: faults.Exp(200), MTTR: 40, Budget: 2},
					BBReject:    &faults.RejectPolicy{Prob: 0.1},
					BBDegrade:   &faults.DegradeProcess{Arrival: faults.Exp(100), Duration: 20, Factor: 0.3},
				}),
				Retry: retry, BBFallback: true,
			}
		},
		fired: func(f FaultStats) bool { return f.TaskFailures > 0 && f.Retries > 0 },
	}, {
		name: "checkpointed",
		cfg:  platform.Cori(2, platform.BBPrivate),
		setup: func(t *testing.T) (*workflow.Workflow, RunOptions) {
			return swarp.MustNew(swarp.Params{Pipelines: 4, CoresPerTask: 8}), RunOptions{
				StagedFraction: 1, IntermediatesToBB: true, BBFallback: true,
				Faults: mustFaults(t, faults.Config{
					Seed:        7,
					TaskCrash:   &faults.CrashProcess{Arrival: faults.Exp(30), Budget: 6},
					NodeFailure: &faults.NodeProcess{Arrival: faults.Exp(120), MTTR: 20, Budget: 1},
				}),
				Retry: retry,
				Checkpoint: ckpt.Policy{Interval: 2, Target: ckpt.TargetBB, Drain: true, DrainDelay: 1,
					MinSize: 64 * units.MB},
			}
		},
		fired: func(f FaultStats) bool { return f.CkptCommits > 0 && f.CkptRestarts > 0 },
	}, {
		name: "adaptive",
		cfg:  platform.Cori(1, platform.BBPrivate),
		setup: func(t *testing.T) (*workflow.Workflow, RunOptions) {
			return swarp.MustNew(swarp.Params{Pipelines: 4, CoresPerTask: 8}), RunOptions{
				StagedFraction: 1, IntermediatesToBB: true, BBFallback: true,
				Faults: mustFaults(t, faults.Config{
					Seed:      7,
					BBDegrade: &faults.DegradeProcess{Arrival: faults.Exp(60), Duration: 25, Factor: 0.3},
				}),
				Adapt: adapt.Policy{SpillHighWater: 0.5, ReplicateOnFault: true, DegradedFallback: true},
			}
		},
		fired: func(f FaultStats) bool { return f.AdaptSpills+f.AdaptReplications+f.AdaptFallbacks > 0 },
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sim := MustNewSimulator(c.cfg)
			run := func(metrics bool) *Result {
				wf, opts := c.setup(t)
				opts.Metrics = metrics
				res, err := sim.Run(wf, opts)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			with, without := run(true), run(false)
			if with.Metrics == nil {
				t.Error("Metrics requested but Result.Metrics is nil")
			}
			if without.Metrics != nil {
				t.Error("Metrics not requested but Result.Metrics is set")
			}
			if a, b := runFingerprint(with), runFingerprint(without); a != b {
				t.Errorf("results differ with metrics on and off:\n with: %s\n  off: %s", a, b)
			}
			if !c.fired(with.Faults) {
				t.Errorf("the case's mechanism did not fire: %+v", with.Faults)
			}
		})
	}
}

func mustFaults(t *testing.T, cfg faults.Config) *faults.Injector {
	t.Helper()
	inj, err := faults.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// runFingerprint renders every Result field but Metrics and Trace, with
// floats at full bit precision.
func runFingerprint(r *Result) string {
	s := fmt.Sprintf("makespan=%016x events=%d peak=%d faults=%+v bb=%#v pfs=%#v",
		math.Float64bits(r.Makespan), r.Events, r.PeakPending, r.Faults, r.BB, r.PFS)
	for _, sum := range r.Summaries {
		s += fmt.Sprintf(" %#v", sum)
	}
	return s
}

// TestMetricsFoldSpillForms: a spill that copied its replica adds its
// bytes to adapt_bytes_total, even zero of them, and so creates the
// series; a spill that only evicted moves nothing and adds nothing.
func TestMetricsFoldSpillForms(t *testing.T) {
	cases := []struct {
		name   string
		ev     trace.Event
		series int // adapt_bytes_total series the spill creates
	}{
		{"eviction", trace.At("f", "bb"), 0},
		{"zero-byte copy", trace.At("f", "bb").Moved(0), 1},
		{"copy", trace.At("f", "bb").Moved(3 * units.MiB), 1},
	}
	for _, tc := range cases {
		sys := storage.NewSystem(platform.MustNew(sim.NewEngine(), platform.Cori(1, platform.BBStriped)), nil)
		col := metrics.New("test", "wf")
		fold := NewMetricsFold(col, workflow.New("wf"), sys)
		tc.ev.Kind = trace.AdaptSpill
		fold.Emit(tc.ev)
		k := metrics.Key{Tier: string(storage.KindSharedBB), Op: metrics.OpSpill}
		got := 0
		for _, s := range col.Snapshot().Counters {
			if s.Family == metrics.AdaptBytesTotal {
				got++
				if s.Key != k || s.Value != tc.ev.Y {
					t.Errorf("%s: series %+v = %g, want %+v = %g", tc.name, s.Key, s.Value, k, tc.ev.Y)
				}
			}
		}
		if got != tc.series {
			t.Errorf("%s: %d adapt_bytes_total series, want %d", tc.name, got, tc.series)
		}
	}
}
