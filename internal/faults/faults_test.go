package faults

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"bbwfsim/internal/core"
	"bbwfsim/internal/exec"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/swarp"
	"bbwfsim/internal/trace"
)

func TestDistValidation(t *testing.T) {
	bad := []Config{
		{TaskCrash: &CrashProcess{Arrival: Exp(0)}},
		{TaskCrash: &CrashProcess{Arrival: Exp(-5)}},
		{TaskCrash: &CrashProcess{Arrival: Dist{Kind: "zipf", Scale: 1}}},
		{NodeFailure: &NodeProcess{Arrival: Exp(100), MTTR: 0}},
		{NodeFailure: &NodeProcess{Arrival: Dist{Kind: Weibull, Scale: 100}}},
		{BBReject: &RejectPolicy{Prob: 1.5}},
		{BBReject: &RejectPolicy{Prob: -0.1}},
		{BBDegrade: &DegradeProcess{Arrival: Exp(10), Duration: 0, Factor: 0.5}},
		{BBDegrade: &DegradeProcess{Arrival: Exp(10), Duration: 5, Factor: 0}},
		{PFSDegrade: &DegradeProcess{Arrival: Exp(10), Duration: 5, Factor: 1.2}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d: New accepted invalid config %+v", i, cfg)
		}
	}
	if _, err := New(Config{}); err != nil {
		t.Errorf("New rejected the empty (all-disabled) config: %v", err)
	}
}

func TestDistSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 20000
	sum := 0.0
	for i := 0; i < n; i++ {
		d := Exp(30).sample(rng)
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			t.Fatalf("exponential sample %g out of range", d)
		}
		sum += d
	}
	if mean := sum / n; mean < 27 || mean > 33 {
		t.Errorf("exponential mean %g, want ~30", mean)
	}
	// Weibull with shape 1 is exponential with the same scale.
	sum = 0
	for i := 0; i < n; i++ {
		d := Dist{Kind: Weibull, Scale: 30, Shape: 1}.sample(rng)
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			t.Fatalf("weibull sample %g out of range", d)
		}
		sum += d
	}
	if mean := sum / n; mean < 27 || mean > 33 {
		t.Errorf("weibull(30,1) mean %g, want ~30", mean)
	}
}

// run executes a SWarp workload on Cori with the given fault config and
// retry policy.
func run(t *testing.T, mode platform.BBMode, cfg Config, retry exec.RetryPolicy) (*core.Result, error) {
	t.Helper()
	inj, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wf := swarp.MustNew(swarp.Params{Pipelines: 4, CoresPerTask: 4})
	sim := core.MustNewSimulator(platform.Cori(2, mode))
	return sim.Run(wf, core.RunOptions{
		StagedFraction:    1,
		IntermediatesToBB: true,
		Faults:            inj,
		Retry:             retry,
		BBFallback:        true,
		TraceSink:         trace.Retain,
	})
}

func TestTaskCrashRecovery(t *testing.T) {
	baseline, err := run(t, platform.BBStriped, Config{}, exec.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(t, platform.BBStriped,
		Config{Seed: 11, TaskCrash: &CrashProcess{Arrival: Exp(40)}},
		exec.RetryPolicy{MaxRetries: 50, BaseDelay: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.TaskFailures == 0 {
		t.Fatal("crash process injected no failures; shrink the inter-arrival mean")
	}
	if res.Faults.Retries == 0 {
		t.Error("failures recorded but no retries")
	}
	if res.Makespan <= baseline.Makespan {
		t.Errorf("makespan %g under crashes not above fault-free %g", res.Makespan, baseline.Makespan)
	}
}

func TestRetryBudgetExhaustion(t *testing.T) {
	_, err := run(t, platform.BBStriped,
		Config{Seed: 11, TaskCrash: &CrashProcess{Arrival: Exp(20)}},
		exec.RetryPolicy{MaxRetries: 0})
	if err == nil {
		t.Fatal("zero retry budget under constant crashes did not fail the run")
	}
}

func TestNodeFailureRecovery(t *testing.T) {
	for _, mode := range []platform.BBMode{platform.BBStriped, platform.BBPrivate} {
		res, err := run(t, mode,
			Config{Seed: 3, NodeFailure: &NodeProcess{Arrival: Exp(150), MTTR: 60}},
			exec.RetryPolicy{MaxRetries: 100, BaseDelay: 1})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if res.Faults.NodeFailures == 0 {
			t.Fatalf("mode %v: node process injected no failures", mode)
		}
		if repairs := res.Trace.CountKind(trace.NodeRepair); repairs == 0 {
			t.Errorf("mode %v: failures without repairs", mode)
		}
	}
}

func TestBBRejectionFallsBackToPFS(t *testing.T) {
	res, err := run(t, platform.BBStriped,
		Config{Seed: 5, BBReject: &RejectPolicy{Prob: 0.5}},
		exec.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.BBRejections == 0 {
		t.Fatal("rejection policy rejected nothing")
	}
	if res.Faults.Fallbacks < res.Faults.BBRejections {
		t.Errorf("%d rejections but only %d fallbacks", res.Faults.BBRejections, res.Faults.Fallbacks)
	}
}

func TestDegradationWindows(t *testing.T) {
	baseline, err := run(t, platform.BBStriped, Config{}, exec.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(t, platform.BBStriped,
		Config{
			Seed:       9,
			BBDegrade:  &DegradeProcess{Arrival: Exp(30), Duration: 20, Factor: 0.1},
			PFSDegrade: &DegradeProcess{Arrival: Exp(30), Duration: 20, Factor: 0.1},
		},
		exec.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.DegradeWindows == 0 {
		t.Fatal("degradation processes opened no windows")
	}
	if res.Makespan <= baseline.Makespan {
		t.Errorf("makespan %g under degradation not above fault-free %g", res.Makespan, baseline.Makespan)
	}
}

// TestReplayBitIdentical is the package-local half of the acceptance
// criterion: the same seed must reproduce the same faults and the same
// trace, byte for byte (the cross-package witness lives in
// internal/integration).
func TestReplayBitIdentical(t *testing.T) {
	cfg := Config{
		Seed:        21,
		TaskCrash:   &CrashProcess{Arrival: Exp(60)},
		NodeFailure: &NodeProcess{Arrival: Dist{Kind: Weibull, Scale: 300, Shape: 1.5}, MTTR: 45},
		BBReject:    &RejectPolicy{Prob: 0.2},
		BBDegrade:   &DegradeProcess{Arrival: Exp(120), Duration: 15, Factor: 0.25},
		PFSDegrade:  &DegradeProcess{Arrival: Exp(200), Duration: 10, Factor: 0.5},
	}
	retry := exec.RetryPolicy{MaxRetries: 100, Backoff: exec.BackoffExponential, BaseDelay: 2, MaxDelay: 60, Jitter: 0.3, Seed: 77}
	one := func() []byte {
		res, err := run(t, platform.BBPrivate, cfg, retry)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(res.Trace)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	first, second := one(), one()
	if !bytes.Equal(first, second) {
		t.Fatalf("fault-injected traces differ between identical runs (%d vs %d bytes)", len(first), len(second))
	}
}

func TestInjectorSingleUse(t *testing.T) {
	inj, err := New(Config{Seed: 1, TaskCrash: &CrashProcess{Arrival: Exp(100)}})
	if err != nil {
		t.Fatal(err)
	}
	wf := swarp.MustNew(swarp.Params{Pipelines: 1, CoresPerTask: 4})
	sim := core.MustNewSimulator(platform.Cori(1, platform.BBStriped))
	if _, err := sim.Run(wf, core.RunOptions{Faults: inj, Retry: exec.RetryPolicy{MaxRetries: 10, BaseDelay: 1}}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("reusing an attached Injector did not panic")
		}
	}()
	_, _ = sim.Run(wf, core.RunOptions{Faults: inj})
}
