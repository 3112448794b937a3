package experiments

import (
	"context"
	"fmt"

	"bbwfsim/internal/core"
	"bbwfsim/internal/metrics"
	"bbwfsim/internal/runner"
	"bbwfsim/internal/stats"
	"bbwfsim/internal/testbed"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

// The accuracy experiments run in two fanned stages: first one calibration
// per profile (each its own anchor testbed run), then the full profile ×
// sweep-point grid, where every point runs a private testbed.Runner and a
// private simulator. Calibrated workflows are shared read-only by the
// second stage.

// accuracyPoint is one (real run, simulated run) comparison cell. snap is
// the simulated run's observability snapshot; the testbed side has none.
type accuracyPoint struct {
	realMean, realStd, sim float64
	snap                   *metrics.Snapshot
}

// accuracySnaps extracts the simulator snapshots of a point grid in point
// order, for the index-ordered merge emitMetrics performs.
func accuracySnaps(points []accuracyPoint) []*metrics.Snapshot {
	snaps := make([]*metrics.Snapshot, len(points))
	for i, p := range points {
		snaps[i] = p.snap
	}
	return snaps
}

// RunFig10 reproduces Figure 10: measured ("real", i.e. testbed) versus
// simulated makespan of a one-pipeline SWarp (32 cores per task) as the
// fraction of input files staged into the BB varies, for the three
// configurations. The simulator is calibrated once per configuration from
// the all-BB anchor observation via Eq. 4, exactly the paper's procedure.
func RunFig10(opts Options) ([]*Table, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	profiles := orderedProfiles(1)
	simWFs, err := runPoints(o, profiles, func(prof testbed.Profile) (*workflow.Workflow, error) {
		return calibrateSwarp(prof, 1, 32, o)
	})
	if err != nil {
		return nil, err
	}
	qs := fractions(o)
	testWF := testbedSwarp(1, 32)
	points, err := runner.Map(context.TODO(), o.Jobs, len(profiles)*len(qs), func(i int) (accuracyPoint, error) {
		pi, qi := i/len(qs), i%len(qs)
		prof, q := profiles[pi], qs[qi]
		res, err := testbed.NewRunner(prof, o.Seed).Run(testWF,
			testbed.Scenario{StagedFraction: q, IntermediatesToBB: true}, o.Reps)
		if err != nil {
			return accuracyPoint{}, err
		}
		simRes, err := core.MustNewSimulator(simPreset(prof.Name, 1)).Run(simWFs[pi],
			core.RunOptions{StagedFraction: q, IntermediatesToBB: true})
		if err != nil {
			return accuracyPoint{}, err
		}
		return accuracyPoint{
			realMean: res.MeanMakespan(),
			realStd:  stats.Std(res.Makespans),
			sim:      simRes.Makespan,
			snap:     simRes.Metrics,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	emitMetrics(o, accuracySnaps(points))
	var tables []*Table
	for pi, prof := range profiles {
		t := &Table{
			ID:     "fig10-" + prof.Name,
			Title:  fmt.Sprintf("Real vs. simulated makespan [s] on %s (1 pipeline, 32 cores/task)", prof.Name),
			Header: []string{"% in BB", "real", "simulated", "error"},
		}
		var realSeries, simSeries []float64
		for qi, q := range qs {
			p := points[pi*len(qs)+qi]
			realSeries = append(realSeries, p.realMean)
			simSeries = append(simSeries, p.sim)
			t.Rows = append(t.Rows, []string{
				ffrac(q),
				fsecStd(p.realMean, p.realStd),
				fsec(p.sim),
				fpct(stats.RelErr(p.sim, p.realMean)),
			})
		}
		avg, err := stats.MeanRelErr(simSeries, realSeries)
		if err != nil {
			return nil, err
		}
		t.Notes = append(t.Notes,
			fmt.Sprintf("average error: %s (paper: 5.6%% private, 12.8%% striped, 6.5%% on-node)", fpct(avg)))
		if prof.Name == "cori-private" {
			t.Notes = append(t.Notes,
				"paper Fig. 10(a): the only case where real and simulated trends diverge — the",
				"real makespan grows with staging (stage-in cost dominates) while the simulated",
				"one shrinks (BB reads dominate in the Table-I model).")
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// RunFig11 reproduces Figure 11: measured versus simulated makespan as the
// number of concurrent single-core pipelines grows, everything in the BB.
// Calibration uses the one-pipeline single-core anchor, matching the
// paper's per-experiment calibration.
func RunFig11(opts Options) ([]*Table, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	profiles := orderedProfiles(1)
	type works struct{ rw, cw units.Flops }
	calibrated, err := runPoints(o, profiles, func(prof testbed.Profile) (works, error) {
		simWF1, err := calibrateSwarp(prof, 1, 1, o)
		if err != nil {
			return works{}, err
		}
		return works{
			rw: simWF1.Task("resample_000").Work(),
			cw: simWF1.Task("combine_000").Work(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	counts := pipelineCounts(o)
	points, err := runner.Map(context.TODO(), o.Jobs, len(profiles)*len(counts), func(i int) (accuracyPoint, error) {
		pi, ni := i/len(counts), i%len(counts)
		prof, n := profiles[pi], counts[ni]
		res, err := testbed.NewRunner(prof, o.Seed).Run(testbedSwarp(n, 1),
			testbed.Scenario{StagedFraction: 1, IntermediatesToBB: true, CoresPerTask: 1}, o.Reps)
		if err != nil {
			return accuracyPoint{}, err
		}
		simWF := swarpWithWorks(n, 1, calibrated[pi].rw, calibrated[pi].cw)
		simRes, err := core.MustNewSimulator(simPreset(prof.Name, 1)).Run(simWF,
			core.RunOptions{StagedFraction: 1, IntermediatesToBB: true, CoresPerTask: 1})
		if err != nil {
			return accuracyPoint{}, err
		}
		return accuracyPoint{
			realMean: res.MeanMakespan(),
			realStd:  stats.Std(res.Makespans),
			sim:      simRes.Makespan,
			snap:     simRes.Metrics,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	emitMetrics(o, accuracySnaps(points))
	var tables []*Table
	for pi, prof := range profiles {
		t := &Table{
			ID:     "fig11-" + prof.Name,
			Title:  fmt.Sprintf("Real vs. simulated makespan [s] on %s vs. #pipelines (1 core/task, all in BB)", prof.Name),
			Header: []string{"pipelines", "real", "simulated", "error"},
		}
		var realSeries, simSeries []float64
		for ni, n := range counts {
			p := points[pi*len(counts)+ni]
			realSeries = append(realSeries, p.realMean)
			simSeries = append(simSeries, p.sim)
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(n),
				fsecStd(p.realMean, p.realStd),
				fsec(p.sim),
				fpct(stats.RelErr(p.sim, p.realMean)),
			})
		}
		avg, err := stats.MeanRelErr(simSeries, realSeries)
		if err != nil {
			return nil, err
		}
		trend := "same"
		if !stats.SameTrend(simSeries, realSeries, 0.02) {
			trend = "DIFFERENT"
		}
		t.Notes = append(t.Notes,
			fmt.Sprintf("average error: %s, trend agreement: %s (paper: 11.8%% private, 11.6%% striped, 15.9%% on-node)",
				fpct(avg), trend))
		tables = append(tables, t)
	}
	return tables, nil
}
