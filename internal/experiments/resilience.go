package experiments

import (
	"fmt"

	"bbwfsim/internal/core"
	"bbwfsim/internal/exec"
	"bbwfsim/internal/faults"
	"bbwfsim/internal/genomes"
	"bbwfsim/internal/metrics"
	"bbwfsim/internal/swarp"
	"bbwfsim/internal/workflow"
)

// The resilience experiments measure how fault injection and the recovery
// policies change workflow makespan: failure rate × retry policy × platform
// profile, on the paper's two workloads (SWarp, Fig. 4 setting; 1000Genomes,
// Fig. 13 setting). Failure processes are calibrated against each
// configuration's fault-free makespan, so "rare" and "frequent" mean the
// same thing on every platform and at every --quick scale.

// retryCase pairs a label with a retry policy.
type retryCase struct {
	label  string
	policy exec.RetryPolicy
}

func retryCases(seed int64) []retryCase {
	return []retryCase{
		{"fixed 5s", exec.RetryPolicy{MaxRetries: 60, Backoff: exec.BackoffFixed, BaseDelay: 5}},
		{"expo 2s+jitter", exec.RetryPolicy{
			MaxRetries: 60, Backoff: exec.BackoffExponential,
			BaseDelay: 2, MaxDelay: 120, Jitter: 0.25, Seed: seed,
		}},
	}
}

// faultRegime scales a composite failure process from a fault-free
// makespan: task crashes at the given mean-time-between-failures, node
// failures about once per run, occasional BB allocation rejections, and a
// transient BB degradation window.
type faultRegime struct {
	label    string
	crashDiv float64 // crash MTBF = makespan / crashDiv; 0 disables faults
}

var faultRegimes = []faultRegime{
	{"none", 0},
	{"rare", 2},
	{"frequent", 8},
}

func regimeConfig(r faultRegime, baseline float64, seed int64) faults.Config {
	return faults.Config{
		Seed: seed,
		// Campaigns are bounded (Budget) so the sweep terminates even when
		// recovery stretches the run well past the fault-free makespan.
		TaskCrash:   &faults.CrashProcess{Arrival: faults.Exp(baseline / r.crashDiv), Budget: int(2 * r.crashDiv)},
		NodeFailure: &faults.NodeProcess{Arrival: faults.Exp(baseline), MTTR: baseline / 10, Budget: 2},
		BBReject:    &faults.RejectPolicy{Prob: 0.05},
		BBDegrade:   &faults.DegradeProcess{Arrival: faults.Exp(baseline / 2), Duration: baseline / 20, Factor: 0.3},
	}
}

// resilienceRows runs the regime × retry sweep for the given platform
// profiles, appending one row per configuration in profile-major order.
//
// The sweep fans across Options.Jobs workers in two stages: first the
// fault-free baseline per profile, then every (profile, regime, retry)
// fault case. Each case's seed is the closed form o.Seed + 9176·k (k-th
// fault case of its profile, counted in regime × retry order) — exactly the
// values the serial caseSeed += 9176 accumulation drew — so every fault
// stream is bit-identical at any Jobs value.
func resilienceRows(t *Table, profiles []string, nodes int, wf *workflow.Workflow, ro core.RunOptions, o Options) error {
	ro.Metrics = o.Metrics != nil
	baselines, err := runPoints(o, profiles, func(profile string) (*core.Result, error) {
		sim := core.MustNewSimulator(simPreset(profile, nodes))
		base, err := sim.Run(wf, ro)
		if err != nil {
			return nil, fmt.Errorf("resilience %s baseline: %w", profile, err)
		}
		return base, nil
	})
	if err != nil {
		return err
	}
	type faultCase struct {
		profile string
		base    *core.Result
		reg     faultRegime
		rc      retryCase
		seed    int64
	}
	var cases []faultCase
	for pi, profile := range profiles {
		caseSeed := o.Seed
		for _, reg := range faultRegimes {
			if reg.crashDiv == 0 { //bbvet:allow float-compare -- zero is the literal "no faults" sentinel from the regime table, never computed
				continue
			}
			for _, rc := range retryCases(o.Seed) {
				caseSeed += 9176 // disjoint fault streams per configuration
				cases = append(cases, faultCase{profile, baselines[pi], reg, rc, caseSeed})
			}
		}
	}
	results, err := runPoints(o, cases, func(c faultCase) (*core.Result, error) {
		inj, err := faults.New(regimeConfig(c.reg, c.base.Makespan, c.seed))
		if err != nil {
			return nil, err
		}
		fo := ro
		fo.Faults = inj
		fo.Retry = c.rc.policy
		fo.BBFallback = true
		res, err := core.MustNewSimulator(simPreset(c.profile, nodes)).Run(wf, fo)
		if err != nil {
			return nil, fmt.Errorf("resilience %s/%s/%s: %w", c.profile, c.reg.label, c.rc.label, err)
		}
		return res, nil
	})
	if err != nil {
		return err
	}
	if o.Metrics != nil {
		// Aggregate order is fixed by the sweep definition: baselines in
		// profile order, then fault cases in case-table order.
		snaps := make([]*metrics.Snapshot, 0, len(baselines)+len(results))
		for _, b := range baselines {
			snaps = append(snaps, b.Metrics)
		}
		for _, r := range results {
			snaps = append(snaps, r.Metrics)
		}
		emitMetrics(o, snaps)
	}
	casesPerProfile := len(cases) / len(profiles)
	for pi, profile := range profiles {
		base := baselines[pi]
		t.Rows = append(t.Rows, []string{profile, faultRegimes[0].label, "—",
			fsec(base.Makespan), "1.00×", "0", "0", "0", "0"})
		for ci := pi * casesPerProfile; ci < (pi+1)*casesPerProfile; ci++ {
			c, res := cases[ci], results[ci]
			t.Rows = append(t.Rows, []string{
				profile, c.reg.label, c.rc.label,
				fsec(res.Makespan),
				fmt.Sprintf("%.2f×", res.Makespan/base.Makespan),
				fmt.Sprint(res.Faults.TaskFailures),
				fmt.Sprint(res.Faults.Retries),
				fmt.Sprint(res.Faults.NodeFailures),
				fmt.Sprint(res.Faults.Fallbacks),
			})
		}
	}
	return nil
}

var resilienceHeader = []string{
	"platform", "failures", "retry policy", "makespan [s]", "slowdown",
	"task failures", "retries", "node failures", "fallbacks",
}

// RunResilience measures makespan and slowdown of an all-BB SWarp execution
// (the Fig. 4 setting) under seeded fault injection, across failure regimes,
// retry policies, and the three platform profiles.
func RunResilience(opts Options) ([]*Table, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	pipelines := 8
	if o.Quick {
		pipelines = 4
	}
	wf := swarp.MustNew(swarp.Params{Pipelines: pipelines, CoresPerTask: 8})
	t := &Table{
		ID: "resilience",
		Title: fmt.Sprintf("Fault injection & recovery, SWarp %d pipelines (8 cores/task, all data in BB, 2 nodes)",
			pipelines),
		Header: resilienceHeader,
	}
	ro := core.RunOptions{StagedFraction: 1, IntermediatesToBB: true}
	if err := resilienceRows(t, profileOrder, 2, wf, ro, o); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"crash MTBF is the fault-free makespan / 2 (rare) or / 8 (frequent); node outages",
		"average one per run with MTTR = makespan/10; BB allocations are rejected with",
		"p=0.05 and fall back to the PFS. All failure processes are seeded: replaying a",
		"row reproduces its faults bit-identically. Extension beyond the paper (§II).")
	return []*Table{t}, nil
}

// RunResilienceGenomes repeats the resilience sweep on the 1000Genomes case
// study (the Fig. 13 setting: pre-placed inputs, 8 nodes) on the two
// case-study platforms.
func RunResilienceGenomes(opts Options) ([]*Table, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	chrom := genomes.DefaultChromosomes
	if o.Quick {
		chrom = 4
	}
	wf := genomes.MustNew(genomes.Params{Chromosomes: chrom})
	t := &Table{
		ID: "resilience-genomes",
		Title: fmt.Sprintf("Fault injection & recovery, 1000Genomes %d chromosomes (pre-placed inputs, %d nodes)",
			chrom, caseStudyNodes),
		Header: resilienceHeader,
	}
	ro := core.RunOptions{PrePlaceInputs: true, StagedFraction: 1, IntermediatesToBB: true}
	if err := resilienceRows(t, []string{"cori-private", "summit"}, caseStudyNodes, wf, ro, o); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"same fault calibration as the SWarp resilience table; the deeper 1000Genomes",
		"DAG additionally exercises lineage re-execution when a node failure destroys",
		"the only replica of an intermediate file.")
	return []*Table{t}, nil
}
