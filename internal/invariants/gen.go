package invariants

import (
	"fmt"
	"math/rand"

	"bbwfsim/internal/adapt"
	"bbwfsim/internal/ckpt"
	"bbwfsim/internal/core"
	"bbwfsim/internal/exec"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
	"bbwfsim/internal/workloads"
)

// Case is one randomized configuration for the property harness: a
// workflow structure × file regime × platform profile × run-option ×
// fault-regime draw, fully determined by its seed.
type Case struct {
	// Name identifies the draw in failure messages.
	Name string
	// Seed is the draw that produced this case.
	Seed int64
	// Platform is the (possibly capacity-constrained) platform.
	Platform platform.Config
	// Workflow is the generated DAG.
	Workflow *workflow.Workflow
	// Opts are the run options for the fault-free execution.
	Opts core.RunOptions
	// CrashDiv > 0 enables a fault campaign for a second execution,
	// calibrated against the fault-free makespan via FaultOptions (crash
	// MTBF = makespan / CrashDiv). Zero means fault-free only.
	CrashDiv float64
}

// presetOrder fixes the platform draw order.
var presetOrder = []string{"cori-private", "cori-striped", "summit"}

// RandomCase derives one property-harness case from a seed. Same seed,
// same case — the draw uses a private rand stream, so the harness's ≥200
// cases replay bit-identically. File sizes are whole MiB multiples and
// total traffic stays far below 2^53 bytes, keeping every byte tally an
// exact float sum regardless of accumulation order.
func RandomCase(seed int64) (Case, error) {
	rng := rand.New(rand.NewSource(seed))
	c := Case{Seed: seed}

	p := workloads.Params{
		Work:  units.Flops(float64(5+rng.Intn(40)) * 36.80e9),
		Cores: 1 + rng.Intn(4),
		Regime: workloads.FileRegime{
			Count: 1 + rng.Intn(3),
			Size:  units.Bytes(1+rng.Intn(64)) * units.MiB,
		},
	}
	var (
		wf  *workflow.Workflow
		err error
	)
	switch rng.Intn(5) {
	case 0:
		wf, err = workloads.Chain(2+rng.Intn(5), p)
	case 1:
		wf, err = workloads.ForkJoin(2+rng.Intn(4), p)
	case 2:
		wf, err = workloads.ReduceTree(2+rng.Intn(7), p)
	case 3:
		wf, err = workloads.Broadcast(2+rng.Intn(4), p)
	default:
		wf, err = workloads.RandomLayered(seed, 2+rng.Intn(2), 2+rng.Intn(3), 0.3+float64(0.6*rng.Float64()), p)
	}
	if err != nil {
		return Case{}, err
	}
	c.Workflow = wf

	name := presetOrder[rng.Intn(len(presetOrder))]
	cfg, _ := platform.Preset(name, 1+rng.Intn(3))

	fractions := []float64{0, 0.25, 0.5, 0.75, 1}
	c.Opts = core.RunOptions{
		StagedFraction:     fractions[rng.Intn(len(fractions))],
		IntermediatesToBB:  rng.Intn(2) == 0,
		EvictAfterLastRead: rng.Intn(2) == 0,
		PrePlaceInputs:     rng.Intn(2) == 0,
		// The checkers replay the retained events and task records and
		// cross-check them against the metrics snapshot.
		TraceSink: trace.Retain,
		Metrics:   true,
	}
	if name == "cori-private" && rng.Intn(4) == 0 {
		c.Opts.EnforcePrivateVisibility = true
	}
	if rng.Intn(4) == 0 {
		// Constrained burst buffer: capacity a small multiple of the edge
		// volume, so writes overflow and must fall back to the PFS.
		// Pre-placement bypasses the fallback path (PlaceInitial fails
		// outright on a full tier), so these cases stage at runtime only.
		cfg.BB.Capacity = units.Bytes(1+rng.Intn(3)) * (units.Bytes(p.Regime.Count) * p.Regime.Size)
		c.Opts.BBFallback = true
		c.Opts.IntermediatesToBB = true
		c.Opts.PrePlaceInputs = false
	}
	c.Platform = cfg

	if rng.Intn(5) < 2 {
		c.CrashDiv = []float64{2, 4, 8}[rng.Intn(3)]
		c.Opts.BBFallback = true
		// Generous retry budget so bounded fault campaigns cannot exhaust
		// it; jittered backoff draws from its own seeded stream.
		c.Opts.Retry = exec.RetryPolicy{
			MaxRetries: 60, Backoff: exec.BackoffExponential,
			BaseDelay: 2, MaxDelay: 60, Jitter: 0.25, Seed: seed,
		}
	}

	// Checkpoint-recovery draw — appended after every earlier draw so the
	// cases of prior harness versions keep their workflow, platform, and
	// fault regime unchanged.
	if rng.Intn(3) == 0 {
		c.Opts.Checkpoint = randomPolicy(rng)
	}

	c.Name = fmt.Sprintf("seed%04d-%s-%s-f%.2f", seed, wf.Name(), name, c.Opts.StagedFraction)
	return c, nil
}

// randomPolicy draws one valid checkpoint policy: an interval shorter than
// most task compute times, a whole-MiB snapshot size (keeping byte tallies
// exact float sums), and one of the three recovery tiers — PFS, burst
// buffer, or burst buffer with an asynchronous drain.
func randomPolicy(rng *rand.Rand) ckpt.Policy {
	pol := ckpt.Policy{
		Interval: []float64{5, 15, 45}[rng.Intn(3)],
		MinSize:  units.Bytes(1+rng.Intn(4)) * 16 * units.MiB,
	}
	switch rng.Intn(3) {
	case 0:
		pol.Target = ckpt.TargetPFS
	case 1:
		pol.Target = ckpt.TargetBB
	default:
		pol.Target = ckpt.TargetBB
		pol.Drain = true
		pol.DrainDelay = float64(rng.Intn(20))
	}
	return pol
}

// CkptCase derives a checkpointed variant of RandomCase(seed): the same
// workflow × platform × option draw, with a checkpoint policy forced on
// and a fault campaign guaranteed, for the checkpointed property harness.
// The extra draws come from a separate stream, so the underlying case
// stays identical to RandomCase's.
//
//bbvet:allow unreached -- entry point of the seeded invariant harness, a test-only package by design
func CkptCase(seed int64) (Case, error) {
	c, err := RandomCase(seed)
	if err != nil {
		return Case{}, err
	}
	rng := rand.New(rand.NewSource(seed + 7*streamOffset))
	c.Opts.Checkpoint = randomPolicy(rng)
	if c.CrashDiv == 0 { //bbvet:allow float-compare -- zero is the literal "no faults drawn" sentinel RandomCase assigns, never computed
		c.CrashDiv = []float64{2, 4, 8}[rng.Intn(3)]
		c.Opts.BBFallback = true
		c.Opts.Retry = exec.RetryPolicy{
			MaxRetries: 60, Backoff: exec.BackoffExponential,
			BaseDelay: 2, MaxDelay: 60, Jitter: 0.25, Seed: seed,
		}
	}
	c.Name = "ckpt-" + c.Name
	return c, nil
}

// AdaptCase derives an adaptive variant of RandomCase(seed): the same
// workflow × platform × option draw, with an adapt policy forced on, the
// burst buffer squeezed to a small multiple of the file regime (so pressure
// spill actually fires), and a fault campaign guaranteed (so replication
// and degradation fallback fire too). The extra draws come from a separate
// stream — disjoint from both RandomCase's and CkptCase's — so the
// underlying case stays identical to RandomCase's.
//
//bbvet:allow unreached -- entry point of the seeded invariant harness, a test-only package by design
func AdaptCase(seed int64) (Case, error) {
	c, err := RandomCase(seed)
	if err != nil {
		return Case{}, err
	}
	rng := rand.New(rand.NewSource(seed + 11*streamOffset))
	high := []float64{0.5, 0.7, 0.9}[rng.Intn(3)]
	c.Opts.Adapt = adapt.Policy{
		SpillHighWater:   high,
		ReplicateOnFault: true,
		DegradedFallback: rng.Intn(2) == 0,
	}
	if rng.Intn(2) == 0 {
		c.Opts.Adapt.SpillLowWater = 0.5 * high
	}
	if rng.Intn(3) == 0 {
		c.Opts.Adapt.ReplicationBudget = 1 + rng.Intn(8)
	}
	// Squeeze the burst buffer to a fraction of the workflow's total file
	// footprint so occupancy reaches the high-water mark, and stage
	// aggressively so traffic actually lands there. BBFallback keeps
	// overflow non-fatal (the harness studies invariants, not failed runs);
	// pre-placement is off because PlaceInitial fails outright on a full
	// tier.
	var footprint units.Bytes
	for _, f := range c.Workflow.Files() {
		footprint += f.Size()
	}
	c.Platform.BB.Capacity = footprint / units.Bytes(2+rng.Intn(3))
	c.Opts.StagedFraction = 1
	c.Opts.IntermediatesToBB = true
	c.Opts.BBFallback = true
	c.Opts.PrePlaceInputs = false
	if c.CrashDiv == 0 { //bbvet:allow float-compare -- zero is the literal "no faults drawn" sentinel RandomCase assigns, never computed
		c.CrashDiv = []float64{2, 4, 8}[rng.Intn(3)]
		c.Opts.Retry = exec.RetryPolicy{
			MaxRetries: 60, Backoff: exec.BackoffExponential,
			BaseDelay: 2, MaxDelay: 60, Jitter: 0.25, Seed: seed,
		}
	}
	c.Name = "adapt-" + c.Name
	return c, nil
}

// streamOffset keeps CkptCase's and AdaptCase's extra draws disjoint from
// RandomCase's for any seed (same large-prime spacing the fault injector
// uses).
const streamOffset = 1_000_003
