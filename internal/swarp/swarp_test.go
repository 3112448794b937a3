package swarp

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"testing"

	"bbwfsim/internal/calib"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

func TestSinglePipelineShape(t *testing.T) {
	w := MustNew(Params{Pipelines: 1})
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	// 1 stage-in + 1 resample + 1 combine.
	if got := len(w.Tasks()); got != 3 {
		t.Fatalf("tasks = %d, want 3", got)
	}
	stage := w.Task("stage_in")
	if stage == nil || stage.Kind() != workflow.KindStageIn {
		t.Fatal("missing stage-in task")
	}
	if got := len(stage.Outputs()); got != 32 { // 16 images + 16 weights
		t.Errorf("stage-in outputs = %d, want 32", got)
	}
	res := w.Task("resample_000")
	if got := len(res.Inputs()); got != 32 {
		t.Errorf("resample inputs = %d, want 32", got)
	}
	if got := len(res.Outputs()); got != 32 {
		t.Errorf("resample outputs = %d, want 32", got)
	}
	com := w.Task("combine_000")
	if got := len(com.Inputs()); got != 32 {
		t.Errorf("combine inputs = %d, want 32", got)
	}
	if got := len(com.Outputs()); got != 2 {
		t.Errorf("combine outputs = %d, want 2 (coadd + weight)", got)
	}
	// Dependency chain: stage → resample → combine.
	if ps := res.Parents(); len(ps) != 1 || ps[0] != stage {
		t.Error("resample should depend only on stage-in")
	}
	if ps := com.Parents(); len(ps) != 1 || ps[0] != res {
		t.Error("combine should depend only on resample")
	}
}

func TestFileSizesMatchPaper(t *testing.T) {
	w := MustNew(Params{Pipelines: 1})
	if got := w.File("p000_img00.fits").Size(); got != 32*units.MiB {
		t.Errorf("image size = %v, want 32 MiB", got)
	}
	if got := w.File("p000_wht00.fits").Size(); got != 16*units.MiB {
		t.Errorf("weight size = %v, want 16 MiB", got)
	}
	var staged units.Bytes
	for _, f := range w.Task("stage_in").Outputs() {
		staged += f.Size()
	}
	if staged != 16*(32+16)*units.MiB {
		t.Errorf("input bytes per pipeline = %v, want 768 MiB", staged)
	}
}

func TestLambdaAnnotations(t *testing.T) {
	data, err := workflow.Marshal(MustNew(Params{Pipelines: 2}))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Tasks []struct {
			ID       string  `json:"id"`
			LambdaIO float64 `json:"lambdaIO"`
		} `json:"tasks"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"resample_001": calib.LambdaIOResample, "combine_001": calib.LambdaIOCombine}
	for _, task := range doc.Tasks {
		if w, ok := want[task.ID]; ok && task.LambdaIO != w {
			t.Errorf("%s λ = %v, want %v", task.ID, task.LambdaIO, w)
		}
		delete(want, task.ID)
	}
	if len(want) > 0 {
		t.Errorf("tasks missing from the encoded workflow: %v", want)
	}
}

func TestWorkDerivesFromEq4(t *testing.T) {
	// ResampleWork must equal p(1−λ)T(p)·speed for the anchor observation.
	want := 32 * (1 - 0.203) * 12.0 * 36.80e9
	if math.Abs(float64(ResampleWork)-want) > 1e-3 {
		t.Errorf("ResampleWork = %v, want %v", float64(ResampleWork), want)
	}
	o := calib.Observation{TaskName: "resample", Cores: 32, Time: 12, LambdaIO: calib.LambdaIOResample}
	w, err := o.Work(36.80 * units.GFlopPerSec)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(w-ResampleWork)) > 1e-3 {
		t.Errorf("calib package disagrees with swarp anchor: %v vs %v", w, ResampleWork)
	}
}

func TestManyPipelinesIndependent(t *testing.T) {
	const n = 8
	w := MustNew(Params{Pipelines: n})
	if got := len(w.Tasks()); got != 1+2*n {
		t.Fatalf("tasks = %d, want %d", got, 1+2*n)
	}
	levels, err := w.Levels()
	if err != nil {
		t.Fatal(err)
	}
	// Level 0: stage-in; level 1: n resamples; level 2: n combines.
	if len(levels) != 3 || len(levels[1]) != n || len(levels[2]) != n {
		t.Errorf("level shape wrong: %d levels", len(levels))
	}
	// Pipelines must not share files.
	for _, f := range w.Files() {
		if len(f.Consumers()) > 1 {
			t.Errorf("file %s shared by %d consumers", f.ID(), len(f.Consumers()))
		}
	}
}

func TestCoresParameter(t *testing.T) {
	w := MustNew(Params{Pipelines: 1, CoresPerTask: 8})
	if got := w.Task("resample_000").Cores(); got != 8 {
		t.Errorf("resample cores = %d, want 8", got)
	}
	if got := w.Task("stage_in").Cores(); got != 1 {
		t.Errorf("stage-in cores = %d, want 1 (always sequential)", got)
	}
}

func TestParamValidation(t *testing.T) {
	if _, err := New(Params{Pipelines: 0}); err == nil {
		t.Error("0 pipelines accepted")
	}
	if _, err := New(Params{Pipelines: -3}); err == nil {
		t.Error("negative pipelines accepted")
	}
}

func TestStatsFootprint(t *testing.T) {
	w := MustNew(Params{Pipelines: 1})
	s, err := w.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	// Inputs (produced by stage-in, so not "workflow inputs"): footprint =
	// 768 MiB staged + 768 MiB intermediates + 96 MiB coadd.
	want := 768*units.MiB + 768*units.MiB + 96*units.MiB
	if s.TotalBytes != want {
		t.Errorf("footprint = %v, want %v", s.TotalBytes, want)
	}
	if s.TasksByName["resample"] != 1 || s.TasksByName["combine"] != 1 {
		t.Error("task categories wrong")
	}
}

// TestIDsMatchSprintf: the workflow's name, its task and file IDs, and
// each task's input order equal their fmt.Sprintf forms; adaptation
// breaks victim ties by file ID, so IDs must not move.
func TestIDsMatchSprintf(t *testing.T) {
	for n := 1; n <= 32; n++ {
		w := MustNew(Params{Pipelines: n})
		if want := fmt.Sprintf("swarp-%dp", n); w.Name() != want {
			t.Fatalf("name %q, want %q", w.Name(), want)
		}
		var files, tasks []string
		inputs := map[string][]string{}
		var stage []string
		for i := 0; i < n; i++ {
			for j := 0; j < 16; j++ {
				stage = append(stage, fmt.Sprintf("p%03d_img%02d.fits", i, j), fmt.Sprintf("p%03d_wht%02d.fits", i, j))
			}
		}
		files = append(files, stage...)
		tasks = append(tasks, "stage_in")
		for i := 0; i < n; i++ {
			var in, out []string
			for j := 0; j < 16; j++ {
				in = append(in, fmt.Sprintf("p%03d_img%02d.fits", i, j), fmt.Sprintf("p%03d_wht%02d.fits", i, j))
				out = append(out, fmt.Sprintf("p%03d_rimg%02d.fits", i, j), fmt.Sprintf("p%03d_rwht%02d.fits", i, j))
			}
			files = append(files, out...)
			files = append(files, fmt.Sprintf("p%03d_coadd.fits", i), fmt.Sprintf("p%03d_coadd_weight.fits", i))
			resample, combine := fmt.Sprintf("resample_%03d", i), fmt.Sprintf("combine_%03d", i)
			tasks = append(tasks, resample, combine)
			inputs[resample], inputs[combine] = in, out
		}
		if got := fileIDs(w.Files()); !slices.Equal(got, files) {
			t.Fatalf("%d pipelines: file IDs\n%v\nwant\n%v", n, got, files)
		}
		var got []string
		for _, task := range w.Tasks() {
			got = append(got, task.ID())
			if in := fileIDs(task.Inputs()); !slices.Equal(in, inputs[task.ID()]) {
				t.Fatalf("%d pipelines: %s reads %v, want %v", n, task.ID(), in, inputs[task.ID()])
			}
		}
		if !slices.Equal(got, tasks) {
			t.Fatalf("%d pipelines: task IDs\n%v\nwant\n%v", n, got, tasks)
		}
		if out := fileIDs(w.Task("stage_in").Outputs()); !slices.Equal(out, stage) {
			t.Fatalf("%d pipelines: stage_in writes %v, want %v", n, out, stage)
		}
	}
}

func fileIDs(fs []*workflow.File) []string {
	var ids []string
	for _, f := range fs {
		ids = append(ids, f.ID())
	}
	return ids
}
