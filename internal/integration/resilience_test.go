package integration

import (
	"bytes"
	"encoding/json"
	"testing"

	"bbwfsim/internal/core"
	"bbwfsim/internal/exec"
	"bbwfsim/internal/experiments"
	"bbwfsim/internal/faults"
	"bbwfsim/internal/genomes"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/trace"
)

// resilienceRun executes the 1000Genomes case study on a private-mode Cori
// under a composite fault campaign — task crashes, node failures with
// repair, BB allocation rejections, and BB + PFS degradation windows all at
// once — and returns the run's full serialized trace.
func resilienceRun(t *testing.T) (*core.Result, []byte) {
	t.Helper()
	inj, err := faults.New(faults.Config{
		Seed:        41,
		TaskCrash:   &faults.CrashProcess{Arrival: faults.Exp(80), Budget: 8},
		NodeFailure: &faults.NodeProcess{Arrival: faults.Exp(200), MTTR: 40, Budget: 2},
		BBReject:    &faults.RejectPolicy{Prob: 0.1},
		BBDegrade:   &faults.DegradeProcess{Arrival: faults.Exp(100), Duration: 20, Factor: 0.3},
		PFSDegrade:  &faults.DegradeProcess{Arrival: faults.Exp(150), Duration: 15, Factor: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	wf := genomes.MustNew(genomes.Params{Chromosomes: 4})
	sim := core.MustNewSimulator(platform.Cori(4, platform.BBPrivate))
	res, err := sim.Run(wf, core.RunOptions{
		TraceSink:         trace.Retain,
		PrePlaceInputs:    true,
		StagedFraction:    1,
		IntermediatesToBB: true,
		Faults:            inj,
		Retry: exec.RetryPolicy{
			MaxRetries: 100, Backoff: exec.BackoffExponential,
			BaseDelay: 2, MaxDelay: 60, Jitter: 0.25, Seed: 13,
		},
		BBFallback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	return res, raw
}

// TestResilienceReplayBitIdentical is the acceptance-criterion witness: a
// seeded fault-injected run combining task crashes, node failures, and BB
// degradation must replay bit-identically — same failures at the same
// virtual instants, same recovery decisions, same trace bytes.
func TestResilienceReplayBitIdentical(t *testing.T) {
	first, rawFirst := resilienceRun(t)
	if first.Faults.TaskFailures == 0 {
		t.Error("campaign injected no task failures; tighten the arrival rates")
	}
	if first.Faults.NodeFailures == 0 {
		t.Error("campaign injected no node failures")
	}
	if first.Faults.DegradeWindows == 0 {
		t.Error("campaign opened no degradation windows")
	}
	if repairs := first.Trace.CountKind(trace.NodeRepair); repairs != first.Faults.NodeFailures {
		t.Errorf("%d node failures but %d repairs", first.Faults.NodeFailures, repairs)
	}
	_, rawSecond := resilienceRun(t)
	if !bytes.Equal(rawFirst, rawSecond) {
		t.Fatalf("fault-injected traces differ between identical runs (%d vs %d bytes)",
			len(rawFirst), len(rawSecond))
	}
}

// TestResilienceExperimentDeterministic runs the full resilience experiment
// sweep twice and requires byte-identical rendered output, mirroring
// TestFig10Deterministic for the fault-injected family.
func TestResilienceExperimentDeterministic(t *testing.T) {
	render := func() string {
		tables, err := experiments.RunResilience(experiments.Options{Quick: true, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, tb := range tables {
			if err := tb.CSV(&buf); err != nil {
				t.Fatal(err)
			}
			if err := tb.Fprint(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.String()
	}
	first, second := render(), render()
	if first != second {
		t.Fatalf("resilience output differs between identical runs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// TestZeroFailureRateMatchesFaultFree asserts the zero-cost-when-disabled
// property at the trace level: a run with a fault model attached but every
// process disabled (the empty faults.Config) must produce the exact trace
// of a plain run with no fault model at all.
func TestZeroFailureRateMatchesFaultFree(t *testing.T) {
	run := func(withInjector bool) []byte {
		wf := genomes.MustNew(genomes.Params{Chromosomes: 4})
		sim := core.MustNewSimulator(platform.Cori(4, platform.BBPrivate))
		opts := core.RunOptions{TraceSink: trace.Retain, PrePlaceInputs: true, StagedFraction: 1, IntermediatesToBB: true}
		if withInjector {
			inj, err := faults.New(faults.Config{Seed: 99})
			if err != nil {
				t.Fatal(err)
			}
			opts.Faults = inj
			opts.Retry = exec.RetryPolicy{MaxRetries: 3, BaseDelay: 1}
			opts.BBFallback = true
		}
		res, err := sim.Run(wf, opts)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(res.Trace)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	plain, disabled := run(false), run(true)
	if !bytes.Equal(plain, disabled) {
		t.Fatalf("disabled fault model perturbed the trace (%d vs %d bytes)", len(plain), len(disabled))
	}
}
