// Package integration exercises the full stack end to end: file formats →
// generators → calibration → simulation → traces, in combinations the
// per-package unit tests do not cover.
package integration

import (
	"math"
	"os"
	"testing"

	"bbwfsim/internal/calib"
	"bbwfsim/internal/core"
	"bbwfsim/internal/exec"
	"bbwfsim/internal/genomes"
	"bbwfsim/internal/placement"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/swarp"
	"bbwfsim/internal/testbed"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

func approx(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))
}

// TestFileFormatPipeline drives the full artifact path: generate a
// workflow, write it and the platform as JSON, reload both from disk, and
// verify the simulated makespan is bit-identical to simulating the
// in-memory originals.
func TestFileFormatPipeline(t *testing.T) {
	dir := t.TempDir()
	wf := swarp.MustNew(swarp.Params{Pipelines: 2})
	cfg := platform.Cori(1, platform.BBPrivate)

	run := func(w *workflow.Workflow, c platform.Config) float64 {
		sim := core.MustNewSimulator(c)
		res, err := sim.Run(w, core.RunOptions{StagedFraction: 0.5, IntermediatesToBB: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	want := run(wf, cfg)

	// Native workflow JSON + platform JSON.
	data, err := workflow.Marshal(wf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir+"/wf.json", data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := platform.SaveConfig(dir+"/plat.json", cfg); err != nil {
		t.Fatal(err)
	}
	wf2, err := workflow.Load(dir + "/wf.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg2, err := platform.LoadConfig(dir + "/plat.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := run(wf2, cfg2); got != want {
		t.Errorf("JSON round trip changed makespan: %v vs %v", got, want)
	}
}

// TestCalibrationLoopClosesAtAnchor checks the paper's core procedure end
// to end: observe the testbed, calibrate via Eq. 4, simulate the anchor
// configuration, and confirm the simulator lands near the observation.
func TestCalibrationLoopClosesAtAnchor(t *testing.T) {
	for name, prof := range testbed.Profiles(1) {
		if name == "cori-striped" {
			continue // λ_io grossly mismatches the striped pathology; see EXPERIMENTS.md
		}
		runner := testbed.NewRunner(prof, 99)
		anchorWF := swarp.MustNew(swarp.Params{
			Pipelines: 1, CoresPerTask: 32,
			ResampleWork: testbed.TrueResampleWork, CombineWork: testbed.TrueCombineWork,
		})
		cell := core.RunOptions{StagedFraction: 1, IntermediatesToBB: true}
		obs, err := runner.Run(anchorWF, cell, 10)
		if err != nil {
			t.Fatal(err)
		}
		cal, err := calib.FromObservations([]calib.Observation{
			{TaskName: "resample", Cores: 32, Time: obs.TaskMean("resample"), LambdaIO: calib.LambdaIOResample},
			{TaskName: "combine", Cores: 32, Time: obs.TaskMean("combine"), LambdaIO: calib.LambdaIOCombine},
		}, prof.Platform.CoreSpeed)
		if err != nil {
			t.Fatal(err)
		}
		rw, _ := cal.Work("resample")
		cw, _ := cal.Work("combine")
		simWF := swarp.MustNew(swarp.Params{
			Pipelines: 1, CoresPerTask: 32, ResampleWork: rw, CombineWork: cw,
		})
		sim := core.MustNewSimulator(platform.Presets(1)[name])
		res, err := sim.Run(simWF, cell)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(res.Makespan-obs.MeanMakespan()) / obs.MeanMakespan()
		if rel > 0.25 {
			t.Errorf("%s: anchor-point error %.1f%% too large (sim %.2f vs real %.2f)",
				name, 100*rel, res.Makespan, obs.MeanMakespan())
		}
	}
}

// TestFullFeatureStack runs a workflow with everything enabled at once:
// stage-in, stage-out, BB eviction, private-visibility enforcement,
// non-default scheduling policies, on a capacity-constrained multi-node
// platform.
func TestFullFeatureStack(t *testing.T) {
	wf := workflow.New("kitchen-sink")
	var stageFiles []string
	for i := 0; i < 6; i++ {
		id := "in" + string(rune('a'+i))
		wf.MustAddFile(id, 200*units.MB)
		stageFiles = append(stageFiles, id)
	}
	wf.MustAddTask(workflow.TaskSpec{
		ID: "stage_in", Kind: workflow.KindStageIn, Outputs: stageFiles,
	})
	var results []string
	for i := 0; i < 6; i++ {
		in := "in" + string(rune('a'+i))
		out := "out" + string(rune('a'+i))
		wf.MustAddFile(out, 100*units.MB)
		results = append(results, out)
		wf.MustAddTask(workflow.TaskSpec{
			ID: "work" + string(rune('a'+i)), Work: 20e9, Cores: 4,
			Inputs: []string{in}, Outputs: []string{out},
		})
	}
	wf.MustAddTask(workflow.TaskSpec{
		ID: "stage_out", Kind: workflow.KindStageOut, Inputs: results,
	})

	// One 8-core node: at most two 4-core tasks run at once, so the live
	// BB set peaks at 1.2 GB staged + 2×100 MB in-flight writes = 1.4 GB,
	// while the no-eviction total would be 1.8 GB. The 1.45 GB capacity
	// therefore requires eviction to succeed.
	cfg := platform.Cori(1, platform.BBPrivate)
	cfg.CoresPerNode = 8
	cfg.BB.Capacity = 1450 * units.MB
	sim := core.MustNewSimulator(cfg)
	res, err := sim.Run(wf, core.RunOptions{
		TraceSink:                trace.Retain,
		Placement:                placement.AllBB(wf),
		EvictAfterLastRead:       true,
		EnforcePrivateVisibility: true,
		NodePolicy:               exec.NodeLeastLoaded,
		OrderPolicy:              exec.OrderCriticalPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("no progress")
	}
	// Everything ends on the PFS after stage-out.
	for _, r := range results {
		found := false
		for _, rec := range res.Trace.Records() {
			if rec.TaskID == "stage_out" && rec.BytesWritten > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("stage-out moved nothing for %s", r)
		}
	}
	// Determinism with the whole stack on.
	sim2 := core.MustNewSimulator(cfg)
	res2, err := sim2.Run(wf, core.RunOptions{
		TraceSink:                trace.Retain,
		Placement:                placement.AllBB(wf),
		EvictAfterLastRead:       true,
		EnforcePrivateVisibility: true,
		NodePolicy:               exec.NodeLeastLoaded,
		OrderPolicy:              exec.OrderCriticalPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != res2.Makespan {
		t.Errorf("full stack not deterministic: %v vs %v", res.Makespan, res2.Makespan)
	}
}

// TestTraceConservation cross-checks the trace's byte accounting against
// the storage manager's: everything tasks read and wrote must appear in
// the service statistics.
func TestTraceConservation(t *testing.T) {
	wf := genomes.MustNew(genomes.Params{Chromosomes: 2})
	sim := core.MustNewSimulator(platform.Cori(2, platform.BBPrivate))
	res, err := sim.Run(wf, core.RunOptions{TraceSink: trace.Retain, StagedFraction: 0.5, PrePlaceInputs: true})
	if err != nil {
		t.Fatal(err)
	}
	var taskRead, taskWritten units.Bytes
	for _, rec := range res.Trace.Records() {
		taskRead += rec.BytesRead
		taskWritten += rec.BytesWritten
	}
	svcRead := res.BB.BytesRead + res.PFS.BytesRead
	svcWritten := res.BB.BytesWritten + res.PFS.BytesWritten
	if !approx(float64(taskRead), float64(svcRead), 1e-9) {
		t.Errorf("read accounting mismatch: tasks %v vs services %v", taskRead, svcRead)
	}
	if !approx(float64(taskWritten), float64(svcWritten), 1e-9) {
		t.Errorf("write accounting mismatch: tasks %v vs services %v", taskWritten, svcWritten)
	}
}

// TestGenomesAcrossAllPresets smoke-runs the paper's case-study workflow
// on every preset platform with several option combinations.
func TestGenomesAcrossAllPresets(t *testing.T) {
	wf := genomes.MustNew(genomes.Params{Chromosomes: 2})
	for name, cfg := range platform.Presets(4) {
		for _, evict := range []bool{false, true} {
			sim := core.MustNewSimulator(cfg)
			res, err := sim.Run(wf, core.RunOptions{
				StagedFraction:     1,
				IntermediatesToBB:  true,
				PrePlaceInputs:     true,
				EvictAfterLastRead: evict,
			})
			if err != nil {
				t.Errorf("%s evict=%v: %v", name, evict, err)
				continue
			}
			if res.Makespan <= 0 {
				t.Errorf("%s evict=%v: empty run", name, evict)
			}
		}
	}
}
