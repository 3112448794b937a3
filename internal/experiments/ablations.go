package experiments

import (
	"fmt"

	"bbwfsim/internal/core"
	"bbwfsim/internal/exec"
	"bbwfsim/internal/genomes"
	"bbwfsim/internal/placement"
	"bbwfsim/internal/stats"
	"bbwfsim/internal/swarp"
	"bbwfsim/internal/testbed"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

// RunAblationPlacement explores the data-placement heuristic space the
// paper names as future work: with a burst buffer too small for the whole
// 1000Genomes footprint, which selection policy wins?
func RunAblationPlacement(opts Options) ([]*Table, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	chrom := 8
	if o.Quick {
		chrom = 2
	}
	wf := genomes.MustNew(genomes.Params{Chromosomes: chrom})
	st, err := wf.ComputeStats()
	if err != nil {
		return nil, err
	}
	// Constrain the BB to 30% of the data footprint.
	budget := st.TotalBytes.Times(0.30)
	cfg := simPreset("cori-private", caseStudyNodes)
	cfg.BB.Capacity = budget

	dur := func(t *workflow.Task) float64 { return float64(t.Work()) }
	critical, err := placement.NewCriticalPath(wf, budget, dur)
	if err != nil {
		return nil, err
	}
	policies := []*placement.Set{
		placement.AllPFS(),
		placement.NewSizeGreedy(wf, budget, true),
		placement.NewSizeGreedy(wf, budget, false),
		placement.NewFanoutGreedy(wf, budget),
		critical,
	}
	t := &Table{
		ID:     "ablation-placement",
		Title:  fmt.Sprintf("Placement heuristics, 1000Genomes (%d chrom), BB capacity = 30%% of footprint", chrom),
		Header: []string{"policy", "files on BB", "BB bytes", "makespan [s]", "speedup vs all-PFS"},
	}
	results, err := runPoints(o, policies, func(pol *placement.Set) (*core.Result, error) {
		res, err := core.MustNewSimulator(cfg).Run(wf, core.RunOptions{Placement: pol, PrePlaceInputs: true})
		if err != nil {
			return nil, fmt.Errorf("policy %s: %w", pol.Name(), err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	var baseline float64
	for i, pol := range policies {
		res := results[i]
		if pol.Name() == "all-pfs" {
			baseline = res.Makespan
		}
		speedup := ""
		if baseline > 0 {
			speedup = fmt.Sprintf("%.2f", baseline/res.Makespan)
		}
		t.Rows = append(t.Rows, []string{
			pol.Name(),
			fmt.Sprint(pol.Count()),
			pol.BBBytes(wf).String(),
			fsec(res.Makespan),
			speedup,
		})
	}
	t.Notes = append(t.Notes,
		"extension beyond the paper: its conclusion calls for exploring exactly this",
		"heuristic space with the simulator.")
	return []*Table{t}, nil
}

// RunAblationModel quantifies the cost of the paper's perfect-speedup
// assumption: calibrate from a 32-core anchor with Eq. 4 (α = 0) and with
// Eq. 3 using the machine's true Amdahl fractions, then predict testbed
// executions at other core counts.
func RunAblationModel(opts Options) ([]*Table, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	prof := testbed.CoriPrivate(1)
	tb := testbed.NewRunner(prof, o.Seed)
	anchorCores := 32
	anchor, err := tb.Run(testbedSwarp(1, anchorCores),
		core.RunOptions{StagedFraction: 1, IntermediatesToBB: true, CoresPerTask: anchorCores}, o.Reps)
	if err != nil {
		return nil, err
	}
	trueAlpha := prof.Alpha

	speed := prof.Platform.CoreSpeed
	rw4, cw4, err := calibrateSwarpWorks(anchor, speed, anchorCores, paperLambda, [2]float64{}) // Eq. 4
	if err != nil {
		return nil, err
	}
	rw3, cw3, err := calibrateSwarpWorks(anchor, speed, anchorCores, paperLambda,
		[2]float64{trueAlpha["resample"], trueAlpha["combine"]}) // Eq. 3
	if err != nil {
		return nil, err
	}

	runSim := func(cell core.RunOptions, rw, cw units.Flops, alphaRes, alphaCom float64) (float64, error) {
		wf := swarp.MustNew(swarp.Params{
			Pipelines: 1, CoresPerTask: cell.CoresPerTask,
			ResampleWork: rw, CombineWork: cw,
			ResampleAlpha: alphaRes, CombineAlpha: alphaCom,
		})
		sim := core.MustNewSimulator(simPreset("cori-private", 1))
		res, err := sim.Run(wf, cell)
		if err != nil {
			return 0, err
		}
		return res.Makespan, nil
	}

	t := &Table{
		ID:     "ablation-model",
		Title:  "Calibration ablation on cori-private: Eq. 4 (α=0) vs. Eq. 3 (true α), anchored at 32 cores",
		Header: []string{"cores", "real [s]", "Eq.4 sim [s]", "Eq.4 err", "Eq.3 sim [s]", "Eq.3 err"},
	}
	type modelPoint struct{ real, m4, m3 float64 }
	counts := coreCounts(o)
	points, err := runPoints(o, counts, func(cores int) (modelPoint, error) {
		cell := core.RunOptions{StagedFraction: 1, IntermediatesToBB: true, CoresPerTask: cores}
		res, err := testbed.NewRunner(prof, o.Seed).Run(testbedSwarp(1, cores), cell, o.Reps)
		if err != nil {
			return modelPoint{}, err
		}
		m4, err := runSim(cell, rw4, cw4, 0, 0)
		if err != nil {
			return modelPoint{}, err
		}
		m3, err := runSim(cell, rw3, cw3, trueAlpha["resample"], trueAlpha["combine"])
		if err != nil {
			return modelPoint{}, err
		}
		return modelPoint{real: res.MeanMakespan(), m4: m4, m3: m3}, nil
	})
	if err != nil {
		return nil, err
	}
	var real4, sim4, sim3 []float64
	for i, cores := range counts {
		p := points[i]
		real4 = append(real4, p.real)
		sim4 = append(sim4, p.m4)
		sim3 = append(sim3, p.m3)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(cores), fsec(p.real),
			fsec(p.m4), fpct(stats.RelErr(p.m4, p.real)),
			fsec(p.m3), fpct(stats.RelErr(p.m3, p.real)),
		})
	}
	avg4, err := stats.MeanRelErr(sim4, real4)
	if err != nil {
		return nil, err
	}
	avg3, err := stats.MeanRelErr(sim3, real4)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"average error: Eq.4 %s vs Eq.3 %s — Eq. 3 with known α dominates away from the anchor,",
		fpct(avg4), fpct(avg3)),
		"quantifying the accuracy the paper traded for a platform-agnostic model.")
	return []*Table{t}, nil
}

var _ exec.Placement = (*placement.Set)(nil)
