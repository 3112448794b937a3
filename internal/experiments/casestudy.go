package experiments

import (
	"context"
	"fmt"

	"bbwfsim/internal/core"
	"bbwfsim/internal/genomes"
	"bbwfsim/internal/metrics"
	"bbwfsim/internal/runner"
	"bbwfsim/internal/stats"
	"bbwfsim/internal/testbed"
	"bbwfsim/internal/workflow"
)

// caseStudyNodes is the platform size for the 1000Genomes case study: 8
// compute nodes give enough cores to expose the fan-out while keeping the
// schedule non-trivial.
const caseStudyNodes = 8

func genomesFractions(o Options) []float64 {
	if o.Quick {
		return []float64{0, 0.5, 1}
	}
	return []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}
}

func caseStudyWorkflow(o Options) *workflow.Workflow {
	chrom := genomes.DefaultChromosomes
	if o.Quick {
		chrom = 4
	}
	return genomes.MustNew(genomes.Params{Chromosomes: chrom})
}

// runFig13Series simulates the 1000Genomes sweep on both platforms and
// returns (fractions, cori makespans, summit makespans). The platform ×
// fraction grid fans across Options.Jobs workers; every point builds a
// private simulator over the shared read-only workflow. Makespans and
// observability snapshots come back from runner.Map in index order, so
// the emitted aggregate snapshot is bit-identical at any Jobs value.
func runFig13Series(o Options) ([]float64, []float64, []float64, error) {
	wf := caseStudyWorkflow(o)
	fracs := genomesFractions(o)
	platforms := []string{"cori-private", "summit"}
	type point struct {
		ms   float64
		snap *metrics.Snapshot
	}
	points, err := runner.Map(context.TODO(), o.Jobs, len(platforms)*len(fracs), func(i int) (point, error) {
		name, q := platforms[i/len(fracs)], fracs[i%len(fracs)]
		sim := core.MustNewSimulator(simPreset(name, caseStudyNodes))
		res, err := sim.Run(wf, core.RunOptions{PrePlaceInputs: true, StagedFraction: q})
		if err != nil {
			return point{}, fmt.Errorf("fig13 sweep on %s at fraction %g: %w", name, q, err)
		}
		return point{ms: res.Makespan, snap: res.Metrics}, nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	ms := make([]float64, len(points))
	snaps := make([]*metrics.Snapshot, len(points))
	for i, p := range points {
		ms[i], snaps[i] = p.ms, p.snap
	}
	emitMetrics(o, snaps)
	return fracs, ms[:len(fracs)], ms[len(fracs):], nil
}

// RunFig13 reproduces Figure 13: simulated makespan of the 903-task
// 1000Genomes workflow on Cori and Summit as the fraction of input files
// allocated in the BB varies.
func RunFig13(opts Options) ([]*Table, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	fracs, coriMs, summitMs, err := runFig13Series(o)
	if err != nil {
		return nil, err
	}
	wf := caseStudyWorkflow(o)
	st, err := wf.ComputeStats()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig13",
		Title:  "1000Genomes simulated makespan [s] vs. % input files in BB",
		Header: []string{"% in BB", "cori [s]", "summit [s]"},
		Notes: []string{
			fmt.Sprintf("instance: %d tasks, %.1f GB footprint, %.1f GB input (%.0f%%)",
				st.Tasks, float64(st.TotalBytes)/1e9, float64(st.InputBytes)/1e9,
				100*float64(st.InputBytes)/float64(st.TotalBytes)),
			"expected shape: near-linear gain; cori plateaus past ≈80% staged (bandwidth",
			"saturation), summit plateaus only near 100%; summit faster throughout.",
		},
	}
	for i, q := range fracs {
		t.Rows = append(t.Rows, []string{ffrac(q), fsec(coriMs[i]), fsec(summitMs[i])})
	}
	return []*Table{t}, nil
}

// RunFig14 reproduces Figure 14: the same sweep expressed as speedup over
// the 0%-staged configuration, with reference points from the "prior
// study" — regenerated here as testbed runs of the smaller 2-chromosome
// configuration the paper's earlier work used, with all the caveats the
// paper lists (different task-dependency structure, different machine
// state).
func RunFig14(opts Options) ([]*Table, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	fracs, coriMs, summitMs, err := runFig13Series(o)
	if err != nil {
		return nil, err
	}
	coriSpeedup := stats.Speedup(coriMs[0], coriMs)
	summitSpeedup := stats.Speedup(summitMs[0], summitMs)

	// Prior-study reference: 2-chromosome instance on the cori-private
	// testbed at a few fractions only (the prior work measured a handful).
	refWF := genomes.MustNew(genomes.Params{Chromosomes: 2})
	refFracs := []float64{0, 0.5, 1}
	refMs, err := runPoints(o, refFracs, func(q float64) (float64, error) {
		res, err := testbed.NewRunner(testbed.CoriPrivate(caseStudyNodes), o.Seed).Run(refWF,
			testbed.Scenario{StagedFraction: q, PrePlaceInputs: true}, o.Reps)
		if err != nil {
			return 0, err
		}
		return res.MeanMakespan(), nil
	})
	if err != nil {
		return nil, err
	}
	refSpeedup := stats.Speedup(refMs[0], refMs)

	t := &Table{
		ID:     "fig14",
		Title:  "1000Genomes speedup vs. % input files in BB (baseline: 0% staged)",
		Header: []string{"% in BB", "cori speedup", "summit speedup", "prior-study ref (2 chrom)"},
	}
	refAt := func(q float64) string {
		for i, rq := range refFracs {
			if rq == q { //bbvet:allow float-compare -- both fractions come verbatim from the same literal sweep table; exact match is the lookup key
				return fmt.Sprintf("%.2f", refSpeedup[i])
			}
		}
		return ""
	}
	var simAtRef, refVals []float64
	for i, q := range fracs {
		row := []string{ffrac(q), fmt.Sprintf("%.2f", coriSpeedup[i]), fmt.Sprintf("%.2f", summitSpeedup[i]), refAt(q)}
		t.Rows = append(t.Rows, row)
		for j, rq := range refFracs {
			if rq == q { //bbvet:allow float-compare -- both fractions come verbatim from the same literal sweep table; exact match is the lookup key
				simAtRef = append(simAtRef, coriSpeedup[i])
				refVals = append(refVals, refSpeedup[j])
			}
		}
	}
	if len(refVals) > 1 {
		// Exclude the trivially matching 0% point from the error metric.
		avg, err := stats.MeanRelErr(simAtRef[1:], refVals[1:])
		if err != nil {
			return nil, err
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"simulated (22-chrom) vs. prior-study reference (2-chrom) speedup error: %s (paper: ≈29%%,", fpct(avg)),
			"expected to be large: different workflow configuration, machine state, and era).")
	}
	return []*Table{t}, nil
}
