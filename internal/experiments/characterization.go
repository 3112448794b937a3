package experiments

import (
	"fmt"

	"bbwfsim/internal/core"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/stats"
	"bbwfsim/internal/testbed"
	"bbwfsim/internal/workflow"
)

// The characterization sweeps (Figs. 4–9) are grids of independent testbed
// runs — every (scenario, profile) point builds its own Runner — so each
// grid is enumerated once and fanned across Options.Jobs workers via
// runPoints, then rows are assembled from the results in sweep order.
// Figures that report several tasks from the same run (5, 6, 7) execute
// each grid point once and feed every per-task table from that single
// result, instead of re-running the identical simulation per task.

// RunTable1 renders Table I: the platform calibration parameters the
// lightweight simulator uses.
func RunTable1(opts Options) ([]*Table, error) {
	if _, err := opts.withDefaults(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "table1",
		Title:  "Input parameters used in simulation (Table I)",
		Header: []string{"platform", "proc speed/core", "BB network", "BB disk", "PFS network", "PFS disk"},
		Notes: []string{
			"stream caps (model extension, see DESIGN.md): " +
				fmt.Sprintf("cori BB %v, summit BB %v", platform.CoriStreamCap, platform.SummitStreamCap),
		},
	}
	for _, name := range []string{"cori-private", "summit"} {
		cfg := simPreset(name, 1)
		label := "Cori"
		if name == "summit" {
			label = "Summit"
		}
		t.Rows = append(t.Rows, []string{
			label,
			cfg.CoreSpeed.String(),
			cfg.BB.NetworkBW.String(),
			cfg.BB.DiskBW.String(),
			cfg.PFS.NetworkBW.String(),
			cfg.PFS.DiskBW.String(),
		})
	}
	return []*Table{t}, nil
}

// testbedPoint is one cell of a characterization grid: a profile and the
// run options of one testbed run, on a private testbed.Runner.
type testbedPoint struct {
	prof testbed.Profile
	opts core.RunOptions
	wf   int // index into the sweep's workflow list
}

// RunFig4 reproduces Figure 4: stage-in execution time of a one-pipeline
// SWarp (32 cores per task) versus the percentage of input files staged
// into the burst buffer, on all three machines.
func RunFig4(opts Options) ([]*Table, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig4",
		Title:  "Stage-in time vs. % of input files in BB (1 pipeline, 32 cores/task)",
		Header: []string{"% in BB", "cori-private [s]", "cori-striped [s]", "summit [s]"},
	}
	wf := testbedSwarp(1, 32)
	profiles := orderedProfiles(1)
	qs := fractions(o)
	var pts []testbedPoint
	for _, q := range qs {
		for _, prof := range profiles {
			pts = append(pts, testbedPoint{prof: prof,
				opts: core.RunOptions{StagedFraction: q, IntermediatesToBB: true}})
		}
	}
	cells, err := runPoints(o, pts, func(p testbedPoint) (string, error) {
		res, err := testbed.NewRunner(p.prof, o.Seed).Run(wf, p.opts, o.Reps)
		if err != nil {
			return "", err
		}
		times := res.TaskMeans["stage_in"]
		return fsecStd(stats.Mean(times), stats.Std(times)), nil
	})
	if err != nil {
		return nil, err
	}
	for qi, q := range qs {
		row := append([]string{ffrac(q)}, cells[qi*len(profiles):(qi+1)*len(profiles)]...)
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"expected shape: linear growth with staged fraction; summit ≈5× faster than cori;",
		"striped shows the reproducible anomaly at 75% (paper Fig. 4).")
	return []*Table{t}, nil
}

// RunFig5 reproduces Figure 5: Resample and Combine execution times per BB
// mode, with intermediates on the BB versus on the PFS, sweeping the
// fraction of input files staged (1 pipeline, 32 cores per task). Each grid
// point runs once; both task tables read from the same result.
func RunFig5(opts Options) ([]*Table, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	wf := testbedSwarp(1, 32)
	profiles := orderedProfiles(1)
	qs := fractions(o)
	var pts []testbedPoint
	for _, q := range qs {
		for _, prof := range profiles {
			for _, intBB := range []bool{true, false} {
				pts = append(pts, testbedPoint{prof: prof,
					opts: core.RunOptions{StagedFraction: q, IntermediatesToBB: intBB}})
			}
		}
	}
	results, err := runPoints(o, pts, func(p testbedPoint) (*testbed.Result, error) {
		return testbed.NewRunner(p.prof, o.Seed).Run(wf, p.opts, o.Reps)
	})
	if err != nil {
		return nil, err
	}
	perQ := len(profiles) * 2
	tables := make([]*Table, 0, 2)
	for _, taskName := range []string{"resample", "combine"} {
		t := &Table{
			ID:    "fig5-" + taskName,
			Title: fmt.Sprintf("%s execution time [s] vs. %% input files in BB (1 pipeline, 32 cores)", taskName),
			Header: []string{"% in BB",
				"private/int-BB", "private/int-PFS",
				"striped/int-BB", "striped/int-PFS",
				"on-node/int-BB", "on-node/int-PFS"},
		}
		for qi, q := range qs {
			row := []string{ffrac(q)}
			for _, res := range results[qi*perQ : (qi+1)*perQ] {
				row = append(row, fsec(res.TaskMean(taskName)))
			}
			t.Rows = append(t.Rows, row)
		}
		t.Notes = append(t.Notes,
			"expected shape: striped 1–2 orders of magnitude above private; on-node fastest;",
			"striped worsens as more files sit in the BB (1:N small-file pattern).")
		tables = append(tables, t)
	}
	return tables, nil
}

// RunFig6 reproduces Figure 6: execution time versus cores per task with
// all data in the burst buffer (1 pipeline). Each (cores, profile) point
// runs once; both task tables read from the same result.
func RunFig6(opts Options) ([]*Table, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	profiles := orderedProfiles(1)
	cores := coreCounts(o)
	wfs := make([]*workflow.Workflow, len(cores))
	var pts []testbedPoint
	for ci, c := range cores {
		wfs[ci] = testbedSwarp(1, c)
		for _, prof := range profiles {
			pts = append(pts, testbedPoint{prof: prof, wf: ci,
				opts: core.RunOptions{StagedFraction: 1, IntermediatesToBB: true, CoresPerTask: c}})
		}
	}
	results, err := runPoints(o, pts, func(p testbedPoint) (*testbed.Result, error) {
		return testbed.NewRunner(p.prof, o.Seed).Run(wfs[p.wf], p.opts, o.Reps)
	})
	if err != nil {
		return nil, err
	}
	tables := make([]*Table, 0, 2)
	for _, taskName := range []string{"resample", "combine"} {
		t := &Table{
			ID:     "fig6-" + taskName,
			Title:  fmt.Sprintf("%s execution time [s] vs. cores per task (all data in BB)", taskName),
			Header: []string{"cores", "cori-private", "cori-striped", "summit"},
		}
		for ci, c := range cores {
			row := []string{fmt.Sprint(c)}
			for _, res := range results[ci*len(profiles) : (ci+1)*len(profiles)] {
				row = append(row, fsec(res.TaskMean(taskName)))
			}
			t.Rows = append(t.Rows, row)
		}
		t.Notes = append(t.Notes,
			"expected shape: resample improves up to ≈8–16 cores then plateaus; combine is flat",
			"(synchronization-bound), per paper Fig. 6.")
		tables = append(tables, t)
	}
	return tables, nil
}

// pipelineGrid is the grid Figs. 7 and 8 sweep: one SWarp workflow per
// pipeline count (1 core per task), and one all-in-BB point per (count,
// profile), count-major.
func pipelineGrid(o Options, profiles []testbed.Profile) ([]int, []*workflow.Workflow, []testbedPoint) {
	counts := pipelineCounts(o)
	wfs := make([]*workflow.Workflow, len(counts))
	var pts []testbedPoint
	for ni, n := range counts {
		wfs[ni] = testbedSwarp(n, 1)
		for _, prof := range profiles {
			pts = append(pts, testbedPoint{prof: prof, wf: ni,
				opts: core.RunOptions{StagedFraction: 1, IntermediatesToBB: true, CoresPerTask: 1}})
		}
	}
	return counts, wfs, pts
}

// RunFig7 reproduces Figure 7: execution time versus the number of
// concurrent pipelines on one node (1 core per task, everything in the
// BB). Each (pipelines, profile) point runs once; the three task tables
// read from the same result.
func RunFig7(opts Options) ([]*Table, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	profiles := orderedProfiles(1)
	counts, wfs, pts := pipelineGrid(o, profiles)
	results, err := runPoints(o, pts, func(p testbedPoint) (*testbed.Result, error) {
		return testbed.NewRunner(p.prof, o.Seed).Run(wfs[p.wf], p.opts, o.Reps)
	})
	if err != nil {
		return nil, err
	}
	var tables []*Table
	for _, taskName := range []string{"stage_in", "resample", "combine"} {
		t := &Table{
			ID:     "fig7-" + taskName,
			Title:  fmt.Sprintf("%s execution time [s] vs. #pipelines (1 core/task, all data in BB)", taskName),
			Header: []string{"pipelines", "cori-private", "cori-striped", "summit"},
		}
		for ni, n := range counts {
			row := []string{fmt.Sprint(n)}
			for _, res := range results[ni*len(profiles) : (ni+1)*len(profiles)] {
				row = append(row, fsec(res.TaskMean(taskName)))
			}
			t.Rows = append(t.Rows, row)
		}
		t.Notes = append(t.Notes,
			"expected shape: ≈3× slowdown on cori at 32 pipelines (BB bandwidth contention well",
			"below peak, POSIX single-stream limits); near-flat on summit except combine.")
		tables = append(tables, t)
	}
	return tables, nil
}

// RunFig8 reproduces Figure 8: run-to-run variability (coefficient of
// variation and range) of Resample versus the number of pipelines.
func RunFig8(opts Options) ([]*Table, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig8",
		Title:  "Resample variability vs. #pipelines (all data in BB, 1 core/task)",
		Header: []string{"pipelines", "private CV", "striped CV", "summit CV"},
	}
	profiles := orderedProfiles(1)
	counts, wfs, pts := pipelineGrid(o, profiles)
	cells, err := runPoints(o, pts, func(p testbedPoint) (string, error) {
		res, err := testbed.NewRunner(p.prof, o.Seed).Run(wfs[p.wf], p.opts, o.Reps)
		if err != nil {
			return "", err
		}
		return fpct(stats.CV(res.TaskMeans["resample"])), nil
	})
	if err != nil {
		return nil, err
	}
	for ni, n := range counts {
		row := append([]string{fmt.Sprint(n)}, cells[ni*len(profiles):(ni+1)*len(profiles)]...)
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"expected ordering: striped (≈15%) > private > on-node (most stable), per paper Fig. 8.")
	return []*Table{t}, nil
}

// RunFig9 reproduces Figure 9: the average achieved I/O bandwidth of each
// burst-buffer configuration, measured over an 8-pipeline all-BB run.
func RunFig9(opts Options) ([]*Table, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig9",
		Title:  "Average achieved BB bandwidth (8 pipelines, 32 cores/task, all data in BB)",
		Header: []string{"configuration", "read bandwidth", "write bandwidth"},
	}
	wf := testbedSwarp(8, 32)
	profiles := orderedProfiles(1)
	rows, err := runPoints(o, profiles, func(prof testbed.Profile) ([]string, error) {
		res, err := testbed.NewRunner(prof, o.Seed).Run(wf,
			core.RunOptions{StagedFraction: 1, IntermediatesToBB: true}, o.Reps)
		if err != nil {
			return nil, err
		}
		return []string{
			prof.Name,
			fbw(stats.Mean(res.BBReadBW)),
			fbw(stats.Mean(res.BBWriteBW)),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes,
		"expected ordering: on-node ≫ private ≫ striped; all far below hardware peak",
		"(per-op latency and POSIX single-stream limits), per paper Fig. 9.")
	return []*Table{t}, nil
}
