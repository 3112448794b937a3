package experiments

import (
	"fmt"

	"bbwfsim/internal/ckpt"
	"bbwfsim/internal/core"
	"bbwfsim/internal/exec"
	"bbwfsim/internal/faults"
	"bbwfsim/internal/metrics"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/swarp"
	"bbwfsim/internal/units"
)

// The resilience-ckpt experiment is the checkpoint/restart policy study:
// under the same seeded failure processes as the resilience sweep, it
// compares plain lineage re-execution against task-level checkpointing to
// each recovery tier (burst buffer, PFS, burst buffer with asynchronous
// PFS drain) across checkpoint intervals bracketing the Daly optimum. The
// re-executed-compute column is the quantity checkpointing exists to
// reduce: compute seconds spent beyond what the fault-free run needed.

// ckptRecoveries are the recovery policies the sweep compares. The builder
// maps a checkpoint interval to the policy; lineage's builder returns the
// zero (disabled) policy and is swept at a single dummy interval.
var ckptRecoveries = []struct {
	label  string
	target ckpt.Target // "" = lineage (no checkpointing)
	drain  bool
}{
	{"lineage", "", false},
	{"ckpt-bb", ckpt.TargetBB, false},
	{"ckpt-pfs", ckpt.TargetPFS, false},
	{"ckpt-bb+drain", ckpt.TargetBB, true},
}

// ckptSnapshotSize is the per-task snapshot size of the policy study. The
// SWarp tasks declare no memory footprint, so the floor is the whole
// checkpoint; 256 MiB makes the commit cost visible against the swept
// intervals without drowning the workflow's own traffic.
const ckptSnapshotSize = 256 * units.MiB

// ckptCommitCost estimates the seconds one snapshot commit occupies the
// writing task on the given tier — the C that feeds the Young/Daly interval
// formulas. The effective bandwidth is the tier's per-stream cap (or its
// disk bandwidth when uncapped), further limited by the node's injection
// bandwidth, matching how a single writer actually streams.
func ckptCommitCost(cfg platform.Config, target ckpt.Target) float64 {
	tier := cfg.BB
	if target == ckpt.TargetPFS {
		tier = cfg.PFS
	}
	bw := tier.StreamCap
	if bw <= 0 {
		bw = tier.DiskBW
	}
	if cfg.NodeLinkBW > 0 && cfg.NodeLinkBW < bw {
		bw = cfg.NodeLinkBW
	}
	return ckpt.WriteCost(ckptSnapshotSize, tier.WriteLatency, bw)
}

// ckptIntervalSweep brackets the Daly optimum: a quarter, the optimum
// itself, and four times it. Quick mode runs the optimum only.
func ckptIntervalSweep(quick bool) []struct {
	label string
	mult  float64
} {
	all := []struct {
		label string
		mult  float64
	}{
		{"daly/4", 0.25},
		{"daly", 1},
		{"daly×4", 4},
	}
	if quick {
		return all[1:2]
	}
	return all
}

var resilienceCkptHeader = []string{
	"platform", "failures", "recovery", "interval [s]", "makespan [s]", "slowdown",
	"re-exec compute [s]", "ckpt commits", "restarts", "ckpt losses", "young/daly [s]",
}

// RunResilienceCkpt sweeps recovery policy × checkpoint interval × failure
// rate on the two case-study platforms (SWarp, Fig. 4 setting). Within one
// (platform, failure-rate) cell every policy and interval sees the
// bit-identical fault stream — the injector seed depends only on the cell —
// so the re-executed-compute column isolates the recovery policy's effect.
func RunResilienceCkpt(opts Options) ([]*Table, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	policies := ckptRecoveries
	if o.Recovery != "" {
		policies = policies[:0:0]
		for _, p := range ckptRecoveries {
			if p.label == o.Recovery {
				policies = append(policies, p)
			}
		}
		if len(policies) == 0 {
			return nil, fmt.Errorf("experiments: unknown recovery policy %q (want lineage, ckpt-bb, ckpt-pfs, or ckpt-bb+drain)", o.Recovery)
		}
	}
	regimes := faultRegimes[1:] // rare, frequent
	if o.Quick {
		regimes = faultRegimes[2:] // frequent only
	}
	intervals := ckptIntervalSweep(o.Quick)

	pipelines := 8
	if o.Quick {
		pipelines = 4
	}
	wf := swarp.MustNew(swarp.Params{Pipelines: pipelines, CoresPerTask: 8})
	ro := core.RunOptions{StagedFraction: 1, IntermediatesToBB: true, Metrics: true}
	retry := exec.RetryPolicy{
		MaxRetries: 60, Backoff: exec.BackoffExponential,
		BaseDelay: 2, MaxDelay: 120, Jitter: 0.25, Seed: o.Seed,
	}
	profiles := []string{"cori-private", "summit"}
	const nodes = 2

	// Every run collects metrics: the table reads its executed compute
	// from its compute_executed_seconds_total family.
	baselines, err := runPoints(o, profiles, func(profile string) (*core.Result, error) {
		res, err := core.MustNewSimulator(simPreset(profile, nodes)).Run(wf, ro)
		if err != nil {
			return nil, fmt.Errorf("resilience-ckpt %s baseline: %w", profile, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}

	type ckptCase struct {
		profile string
		base    *core.Result
		reg     faultRegime
		policy  string
		pol     ckpt.Policy
		ilabel  string
		seed    int64
		young   float64
		daly    float64
	}
	var cases []ckptCase
	for pi, profile := range profiles {
		cfg := simPreset(profile, nodes)
		base := baselines[pi]
		for ri, reg := range regimes {
			// One fault stream per (platform, regime) cell, shared by every
			// policy and interval — the comparison the experiment exists for.
			seed := o.Seed + 9176*int64(ri+1)
			mtbf := base.Makespan / reg.crashDiv
			for _, rec := range policies {
				if rec.target == "" {
					cases = append(cases, ckptCase{profile, base, reg, rec.label, ckpt.Policy{}, "—", seed, 0, 0})
					continue
				}
				cost := ckptCommitCost(cfg, rec.target)
				young := ckpt.YoungInterval(cost, mtbf)
				daly := ckpt.DalyInterval(cost, mtbf)
				for _, iv := range intervals {
					pol := ckpt.Policy{
						Interval: daly * iv.mult,
						Target:   rec.target,
						Drain:    rec.drain,
						MinSize:  ckptSnapshotSize,
					}
					if rec.drain {
						pol.DrainDelay = 1
					}
					cases = append(cases, ckptCase{profile, base, reg, rec.label, pol, iv.label, seed, young, daly})
				}
			}
		}
	}

	results, err := runPoints(o, cases, func(c ckptCase) (*core.Result, error) {
		inj, err := faults.New(regimeConfig(c.reg, c.base.Makespan, c.seed))
		if err != nil {
			return nil, err
		}
		fo := ro
		fo.Faults = inj
		fo.Retry = retry
		fo.BBFallback = true
		fo.Checkpoint = c.pol
		res, err := core.MustNewSimulator(simPreset(c.profile, nodes)).Run(wf, fo)
		if err != nil {
			return nil, fmt.Errorf("resilience-ckpt %s/%s/%s/%s: %w", c.profile, c.reg.label, c.policy, c.ilabel, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	if o.Metrics != nil {
		snaps := make([]*metrics.Snapshot, 0, len(baselines)+len(results))
		for _, b := range baselines {
			snaps = append(snaps, b.Metrics)
		}
		for _, r := range results {
			snaps = append(snaps, r.Metrics)
		}
		emitMetrics(o, snaps)
	}

	t := &Table{
		ID: "resilience-ckpt",
		Title: fmt.Sprintf("Checkpoint/restart policy study, SWarp %d pipelines (8 cores/task, all data in BB, %d nodes)",
			pipelines, nodes),
		Header: resilienceCkptHeader,
	}
	row := 0
	for pi, profile := range profiles {
		base := baselines[pi]
		baseExecuted := sumFamily(base.Metrics, metrics.ComputeExecutedSecondsTotal)
		t.Rows = append(t.Rows, []string{profile, "none", "—", "—",
			fsec(base.Makespan), "1.00×", "0.00", "0", "0", "0", "—"})
		for ; row < len(cases) && cases[row].profile == profile; row++ {
			c, res := cases[row], results[row]
			ref := "—"
			if c.daly > 0 {
				ref = fmt.Sprintf("%.1f / %.1f", c.young, c.daly)
			}
			ivCell := "—"
			if c.pol.Enabled() {
				ivCell = fmt.Sprintf("%s (%.1f)", c.ilabel, c.pol.Interval)
			}
			t.Rows = append(t.Rows, []string{
				profile, c.reg.label, c.policy, ivCell,
				fsec(res.Makespan),
				fmt.Sprintf("%.2f×", res.Makespan/base.Makespan),
				fsec(sumFamily(res.Metrics, metrics.ComputeExecutedSecondsTotal) - baseExecuted),
				fmt.Sprint(res.Faults.CkptCommits),
				fmt.Sprint(res.Faults.CkptRestarts),
				fmt.Sprint(res.Faults.CkptLosses),
				ref,
			})
		}
	}
	t.Notes = append(t.Notes,
		"fault calibration matches the resilience table (crash MTBF = fault-free makespan",
		"/ 2 or / 8, about one node outage per run); within one platform × failure-rate",
		"cell every recovery policy replays the bit-identical fault stream, so rows",
		"differ only by recovery policy. \"re-exec compute\" is compute spent beyond the",
		"fault-free run; checkpoint intervals bracket the Daly optimum computed from the",
		"tier's commit cost (young/daly column, Young's sqrt(2CM) next to Daly's",
		"refinement). Snapshots are 256 MiB per task and flow through the regular",
		"storage tiers, so checkpoint I/O contends with workflow I/O.",
	)
	return []*Table{t}, nil
}
