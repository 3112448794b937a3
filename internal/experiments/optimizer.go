package experiments

import (
	"fmt"

	"bbwfsim/internal/core"
	"bbwfsim/internal/genomes"
	"bbwfsim/internal/optimize"
	"bbwfsim/internal/placement"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/swarp"
)

// RunAblationOptimizer executes the paper's proposed future work: use the
// simulator as an oracle to search the data-placement space, and quantify
// the benefit over the static heuristics.
func RunAblationOptimizer(opts Options) ([]*Table, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	chrom := 6
	iters := 150
	if o.Quick {
		chrom = 2
		iters = 30
	}
	wf := genomes.MustNew(genomes.Params{Chromosomes: chrom})
	st, err := wf.ComputeStats()
	if err != nil {
		return nil, err
	}
	budget := st.TotalBytes.Times(0.30)
	cfg := simPreset("cori-private", 4)
	cfg.BB.Capacity = budget
	// Each of the four strategies is one run point with its own simulator
	// and oracle: the two static placements cost one simulation each, the
	// two searches are inherently sequential oracle loops, so strategy-level
	// fan-out is the available parallelism.
	newOracle := func() func(pol *placement.Set) (float64, error) {
		sim := core.MustNewSimulator(cfg)
		return func(pol *placement.Set) (float64, error) {
			res, err := sim.Run(wf, core.RunOptions{Placement: pol, PrePlaceInputs: true})
			if err != nil {
				return 0, err
			}
			return res.Makespan, nil
		}
	}

	t := &Table{
		ID: "ablation-optimizer",
		Title: fmt.Sprintf("Simulator-in-the-loop placement search, 1000Genomes (%d chrom), BB = 30%% of footprint",
			chrom),
		Header: []string{"strategy", "makespan [s]", "speedup vs all-PFS", "simulations"},
	}
	type strategy struct {
		name string
		run  func() (float64, int, error) // makespan, simulations
	}
	static := func(name string, build func() *placement.Set) strategy {
		return strategy{name, func() (float64, int, error) {
			ms, err := newOracle()(build())
			if err != nil {
				return 0, 0, fmt.Errorf("optimizer baseline %s: %w", name, err)
			}
			return ms, 1, nil
		}}
	}
	strategies := []strategy{
		static("all-pfs", placement.AllPFS),
		static("fanout-greedy (static)", func() *placement.Set { return placement.NewFanoutGreedy(wf, budget) }),
		{"local search (simulator oracle)", func() (float64, int, error) {
			ls, err := optimize.LocalSearch(wf, newOracle(), optimize.Params{
				Budget: budget, Iterations: iters, Seed: o.Seed,
			})
			if err != nil {
				return 0, 0, err
			}
			return ls.BestMakespan, ls.Evaluations, nil
		}},
		{"greedy marginal (simulator oracle)", func() (float64, int, error) {
			gm, err := optimize.GreedyMarginal(wf, newOracle(), optimize.Params{
				Budget: budget, Iterations: iters, Seed: o.Seed, CandidateSample: 12,
			})
			if err != nil {
				return 0, 0, err
			}
			return gm.BestMakespan, gm.Evaluations, nil
		}},
	}
	type optPoint struct {
		ms    float64
		evals int
	}
	points, err := runPoints(o, strategies, func(s strategy) (optPoint, error) {
		ms, evals, err := s.run()
		if err != nil {
			return optPoint{}, err
		}
		return optPoint{ms, evals}, nil
	})
	if err != nil {
		return nil, err
	}
	baseline, fanoutMs := points[0].ms, points[1].ms
	lsMs, gmMs := points[2].ms, points[3].ms
	for i, s := range strategies {
		t.Rows = append(t.Rows, []string{s.name, fsec(points[i].ms),
			fmt.Sprintf("%.2f", baseline/points[i].ms), fmt.Sprint(points[i].evals)})
	}
	best := lsMs
	if gmMs < best {
		best = gmMs
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"search beats the best static heuristic by %.1f%% (%.2fs vs %.2fs) at the cost of",
		100*(fanoutMs-best)/fanoutMs, best, fanoutMs),
		"a few hundred cheap simulations — the paper's proposed use of the simulator.")
	return []*Table{t}, nil
}

// RunScalability measures the simulator's own cost — the paper's pitch is
// a lightweight simulator that "can run scalably on a single computer" and
// explores the design space "thoroughly and quickly". Rows sweep the
// workflow size; the columns are deterministic (event counts, not wall
// time), so repeated runs emit bit-identical tables.
func RunScalability(opts Options) ([]*Table, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "scalability",
		Title:  "Simulator cost vs. workflow size (SWarp pipelines on one Cori node, all data in BB)",
		Header: []string{"tasks", "files", "events", "events per sim-second"},
	}
	counts := []int{8, 32, 128, 512}
	if o.Quick {
		counts = []int{8, 64}
	}
	rows, err := runPoints(o, counts, func(pipelines int) ([]string, error) {
		wf := swarp.MustNew(swarp.Params{Pipelines: pipelines, CoresPerTask: 1})
		sim := core.MustNewSimulator(platform.Cori(1, platform.BBPrivate))
		res, err := sim.Run(wf, core.RunOptions{StagedFraction: 1, IntermediatesToBB: true, CoresPerTask: 1})
		if err != nil {
			return nil, err
		}
		return []string{
			fmt.Sprint(len(wf.Tasks())),
			fmt.Sprint(len(wf.Files())),
			fmt.Sprint(res.Events),
			fmt.Sprintf("%.0f", float64(res.Events)/res.Makespan),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes,
		"the fluid model's cost scales with flow-set changes (events), not transferred bytes,",
		"which is what makes thorough design-space exploration cheap (paper Section I).")
	return []*Table{t}, nil
}
