package invariants

import (
	"bytes"
	"testing"

	"bbwfsim/internal/core"
	"bbwfsim/internal/exec"
	"bbwfsim/internal/experiments"
	"bbwfsim/internal/faults"
	"bbwfsim/internal/genomes"
	"bbwfsim/internal/metrics"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/swarp"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/workflow"
)

// runAndCheck executes one configuration with a retained trace and asserts
// every cross-layer invariant, returning the result for further assertions.
func runAndCheck(t *testing.T, label string, cfg platform.Config, wf *workflow.Workflow, ro core.RunOptions) *core.Result {
	t.Helper()
	sim, err := core.NewSimulator(cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	ro.TraceSink = trace.Retain
	res, err := sim.Run(wf, ro)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for _, v := range Check(cfg, wf, res) {
		t.Errorf("%s: %s", label, v)
	}
	return res
}

// TestConsistencySwarpFig10Setting rebuilds the phase breakdown from the
// event trace in the paper's Fig. 10 setting (one SWarp pipeline, 32 cores
// per task, intermediates in the BB) and requires exact agreement with the
// emitted snapshot on every profile × staged-fraction cell.
func TestConsistencySwarpFig10Setting(t *testing.T) {
	wf := swarp.MustNew(swarp.Params{Pipelines: 1, CoresPerTask: 32})
	for _, name := range []string{"cori-private", "cori-striped", "summit"} {
		cfg := platform.Presets(1)[name]
		for _, q := range []float64{0, 0.5, 1} {
			label := name
			res := runAndCheck(t, label, cfg, wf, core.RunOptions{StagedFraction: q, IntermediatesToBB: true})

			// The reconstruction must be non-trivial: one completion per
			// workflow task (no faults, so no re-executions).
			rebuilt := RebuildPhases(res.Trace, wf)
			total := 0.0
			for _, s := range rebuilt.Counters {
				if s.Family == metrics.TasksCompletedTotal {
					total += s.Value
				}
			}
			if int(total) != len(wf.Tasks()) {
				t.Errorf("%s at %g: reconstruction counted %g completions, workflow has %d tasks",
					name, q, total, len(wf.Tasks()))
			}
		}
	}
}

// TestConsistencyGenomesCaseStudy repeats the trace↔metrics consistency
// check in the 1000Genomes case-study setting (pre-placed inputs, 8
// nodes), fault-free and under a seeded fault campaign — the latter
// exercises retries, lineage re-execution, and aborted-attempt accounting
// in the reconstruction.
func TestConsistencyGenomesCaseStudy(t *testing.T) {
	wf := genomes.MustNew(genomes.Params{Chromosomes: 4})
	ro := core.RunOptions{PrePlaceInputs: true, StagedFraction: 1, IntermediatesToBB: true}
	for _, name := range []string{"cori-private", "summit"} {
		cfg := platform.Presets(8)[name]
		base := runAndCheck(t, name+" fault-free", cfg, wf, ro)

		inj, err := faults.New(faults.Config{
			Seed:        11,
			TaskCrash:   &faults.CrashProcess{Arrival: faults.Exp(base.Makespan / 8), Budget: 16},
			NodeFailure: &faults.NodeProcess{Arrival: faults.Exp(base.Makespan), MTTR: base.Makespan / 10, Budget: 2},
			BBReject:    &faults.RejectPolicy{Prob: 0.05},
		})
		if err != nil {
			t.Fatal(err)
		}
		fo := ro
		fo.Faults = inj
		fo.BBFallback = true
		fo.Retry = exec.RetryPolicy{MaxRetries: 60, BaseDelay: 2}
		fr := runAndCheck(t, name+" faulty", cfg, wf, fo)
		if fr.Faults.TaskFailures == 0 {
			t.Errorf("%s: fault campaign injected no task failures; consistency check under faults is vacuous", name)
		}
	}
}

// TestExperimentSnapshotSerialParallelInvariance runs the instrumented
// experiments in-process at -j 1 and -j 8 and requires the merged
// observability snapshots to be byte-identical — the runner's
// index-ordered fold must make worker count unobservable.
func TestExperimentSnapshotSerialParallelInvariance(t *testing.T) {
	for _, id := range []string{"fig10", "fig13", "resilience"} {
		e, ok := experiments.Find(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		collect := func(jobs int) []byte {
			t.Helper()
			var snaps []*metrics.Snapshot
			_, err := e.Run(experiments.Options{
				Quick: true, Jobs: jobs,
				Metrics: func(s *metrics.Snapshot) { snaps = append(snaps, s) },
			})
			if err != nil {
				t.Fatalf("%s at -j %d: %v", id, jobs, err)
			}
			merged := metrics.Merge(snaps)
			if merged == nil {
				t.Fatalf("%s at -j %d: no snapshot emitted", id, jobs)
			}
			b, err := merged.JSON()
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		if serial, fanned := collect(1), collect(8); !bytes.Equal(serial, fanned) {
			t.Errorf("%s: merged snapshot differs between -j 1 and -j 8", id)
		}
	}
}
