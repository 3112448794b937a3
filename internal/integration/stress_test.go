package integration

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bbwfsim/internal/core"
	"bbwfsim/internal/exec"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workloads"
)

// stressRun executes one random configuration end to end and returns its
// makespan (0 when the run fails cleanly with an error — e.g. BB
// overflow — which is acceptable; panics are not).
func stressRun(t *testing.T, seed int64) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))

	// Random workflow.
	regime := workloads.FewLarge
	if rng.Intn(2) == 0 {
		regime = workloads.ManySmall
	}
	wf, err := workloads.RandomLayered(seed, 2+rng.Intn(3), 2+rng.Intn(5), rng.Float64(), workloads.Params{
		Regime: regime,
		Work:   units.Flops(1e9 + rng.Float64()*5e10),
		Cores:  1 + rng.Intn(8),
	})
	if err != nil {
		t.Fatalf("seed %d: generator: %v", seed, err)
	}

	// Random platform.
	var cfg platform.Config
	switch rng.Intn(3) {
	case 0:
		cfg = platform.Cori(1+rng.Intn(3), platform.BBPrivate)
	case 1:
		cfg = platform.Cori(1+rng.Intn(3), platform.BBStriped)
	default:
		cfg = platform.Summit(1 + rng.Intn(3))
	}
	if rng.Intn(3) == 0 {
		// Sometimes constrain the BB so overflows exercise error paths.
		cfg.BB.Capacity = units.Bytes(1+rng.Intn(4)) * units.GiB
	}

	// Random feature combination.
	opts := core.RunOptions{
		TraceSink:                trace.Retain,
		StagedFraction:           rng.Float64(),
		IntermediatesToBB:        rng.Intn(2) == 0,
		PrePlaceInputs:           rng.Intn(2) == 0,
		EvictAfterLastRead:       rng.Intn(2) == 0,
		EnforcePrivateVisibility: rng.Intn(2) == 0,
		NodePolicy:               exec.NodePolicy(rng.Intn(3)),
		OrderPolicy:              exec.OrderPolicy(rng.Intn(3)),
	}
	sim, err := core.NewSimulator(cfg)
	if err != nil {
		t.Fatalf("seed %d: simulator: %v", seed, err)
	}
	res, err := sim.Run(wf, opts)
	if err != nil {
		return 0 // clean failure (capacity) is fine
	}
	if res.Makespan <= 0 {
		t.Fatalf("seed %d: zero makespan on success", seed)
	}
	// Accounting invariant on every successful run: services carry at
	// least what tasks read (visibility-driven relocations add extra
	// service-side reads on top, so equality only holds without copies —
	// TestTraceConservation checks that case exactly).
	var taskRead units.Bytes
	for _, rec := range res.Trace.Records() {
		taskRead += rec.BytesRead
	}
	svcRead := res.BB.BytesRead + res.PFS.BytesRead
	if svcRead < taskRead {
		t.Fatalf("seed %d: services read %v but tasks consumed %v", seed, svcRead, taskRead)
	}
	return res.Makespan
}

// TestStressRandomConfigurations drives the whole stack through random
// workflows, platforms, and feature combinations: no panics, clean errors
// only, conserved byte accounting, and bit-identical repetition.
func TestStressRandomConfigurations(t *testing.T) {
	f := func(rawSeed uint32) bool {
		seed := int64(rawSeed)
		a := stressRun(t, seed)
		b := stressRun(t, seed)
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
