package genomes

import (
	"fmt"
	"slices"
	"testing"

	"bbwfsim/internal/units"
)

func TestPaperInstanceHas903Tasks(t *testing.T) {
	w := MustNew(Params{})
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(w.Tasks()); got != 903 {
		t.Errorf("tasks = %d, want 903 (the paper's instance)", got)
	}
	s, err := w.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	// ~67 GB footprint, ~77% of it workflow input.
	gb := func(b units.Bytes) float64 { return float64(b) / 1e9 }
	if gb(s.TotalBytes) < 60 || gb(s.TotalBytes) > 75 {
		t.Errorf("footprint = %.1f GB, want ≈67 GB", gb(s.TotalBytes))
	}
	share := float64(s.InputBytes) / float64(s.TotalBytes)
	if share < 0.72 || share > 0.82 {
		t.Errorf("input share = %.2f, want ≈0.77", share)
	}
}

func TestTaskCategoryCounts(t *testing.T) {
	w := MustNew(Params{})
	s, err := w.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"individuals":       22 * 25,
		"individuals_merge": 22,
		"sifting":           22,
		"mutation_overlap":  22 * 7,
		"frequency":         22 * 7,
		"populations":       1,
	}
	for name, n := range want {
		if s.TasksByName[name] != n {
			t.Errorf("%s = %d, want %d", name, s.TasksByName[name], n)
		}
	}
}

func TestDependencyStructure(t *testing.T) {
	w := MustNew(Params{Chromosomes: 1, Slices: 3})
	merge := w.Task("merge_chr01")
	if got := len(merge.Parents()); got != 3 {
		t.Errorf("merge parents = %d, want 3 (slices)", got)
	}
	ovl := w.Task("overlap_chr01_p0")
	// Parents: merge, sifting, populations.
	if got := len(ovl.Parents()); got != 3 {
		t.Errorf("overlap parents = %d, want 3", got)
	}
	frq := w.Task("frequency_chr01_p6")
	if got := len(frq.Parents()); got != 3 {
		t.Errorf("frequency parents = %d, want 3", got)
	}
	// Sinks are exactly the per-population analyses.
	if got := len(w.Sinks()); got != 14 {
		t.Errorf("sinks = %d, want 14", got)
	}
}

func TestTwoChromosomeReferenceConfig(t *testing.T) {
	w := MustNew(Params{Chromosomes: 2})
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(w.Tasks()); got != 2*41+1 {
		t.Errorf("tasks = %d, want 83", got)
	}
}

func TestPopulationsShared(t *testing.T) {
	w := MustNew(Params{Chromosomes: 3})
	pop := w.File("pop_0.txt")
	// Consumed by mutation_overlap and frequency of every chromosome.
	if got := len(pop.Consumers()); got != 6 {
		t.Errorf("pop_0 consumers = %d, want 6", got)
	}
}

func TestLevelsReflectPhases(t *testing.T) {
	w := MustNew(Params{Chromosomes: 2, Slices: 4})
	levels, err := w.Levels()
	if err != nil {
		t.Fatal(err)
	}
	// Level 0: individuals + sifting + populations (all have no parents);
	// level 1: merges; level 2: analyses.
	if len(levels) != 3 {
		t.Fatalf("levels = %d, want 3", len(levels))
	}
	if got := len(levels[0]); got != 2*4+2+1 {
		t.Errorf("level0 = %d, want 11", got)
	}
	if got := len(levels[1]); got != 2 {
		t.Errorf("level1 = %d, want 2 merges", got)
	}
	if got := len(levels[2]); got != 2*14 {
		t.Errorf("level2 = %d, want 28 analyses", got)
	}
}

func TestParamValidation(t *testing.T) {
	if _, err := New(Params{Chromosomes: -1}); err == nil {
		t.Error("negative chromosomes accepted")
	}
	if _, err := New(Params{Slices: -1}); err == nil {
		t.Error("negative slices accepted")
	}
}

func TestCoresParameter(t *testing.T) {
	w := MustNew(Params{Chromosomes: 1, CoresPerTask: 4})
	if got := w.Task("sifting_chr01").Cores(); got != 4 {
		t.Errorf("cores = %d, want 4", got)
	}
}

// TestIDsMatchSprintf: the workflow's name and its task and file IDs, in
// insertion order, equal their fmt.Sprintf forms; adaptation breaks
// victim ties by file ID, so IDs must not move.
func TestIDsMatchSprintf(t *testing.T) {
	for n := 1; n <= 22; n++ {
		w := MustNew(Params{Chromosomes: n})
		if want := fmt.Sprintf("1000genomes-%dchr", n); w.Name() != want {
			t.Fatalf("name %q, want %q", w.Name(), want)
		}
		files := []string{"populations.in"}
		tasks := []string{"populations"}
		for k := 0; k < Populations; k++ {
			files = append(files, fmt.Sprintf("pop_%d.txt", k))
		}
		for c := 1; c <= n; c++ {
			for s := 0; s < SlicesPerChromosome; s++ {
				files = append(files, fmt.Sprintf("chr%02d_slice%02d.vcf", c, s), fmt.Sprintf("chr%02d_ind%02d.out", c, s))
				tasks = append(tasks, fmt.Sprintf("individuals_chr%02d_s%02d", c, s))
			}
			files = append(files, fmt.Sprintf("chr%02d_merged.tar.gz", c),
				fmt.Sprintf("chr%02d_sift.vcf", c), fmt.Sprintf("chr%02d_sifted.txt", c))
			tasks = append(tasks, fmt.Sprintf("merge_chr%02d", c), fmt.Sprintf("sifting_chr%02d", c))
			for k := 0; k < Populations; k++ {
				files = append(files, fmt.Sprintf("chr%02d_pop%d_overlap.tar.gz", c, k), fmt.Sprintf("chr%02d_pop%d_frequency.tar.gz", c, k))
				tasks = append(tasks, fmt.Sprintf("overlap_chr%02d_p%d", c, k), fmt.Sprintf("frequency_chr%02d_p%d", c, k))
			}
		}
		var gotFiles, gotTasks []string
		for _, f := range w.Files() {
			gotFiles = append(gotFiles, f.ID())
		}
		for _, task := range w.Tasks() {
			gotTasks = append(gotTasks, task.ID())
		}
		if !slices.Equal(gotFiles, files) {
			t.Fatalf("%d chromosomes: file IDs\n%v\nwant\n%v", n, gotFiles, files)
		}
		if !slices.Equal(gotTasks, tasks) {
			t.Fatalf("%d chromosomes: task IDs\n%v\nwant\n%v", n, gotTasks, tasks)
		}
	}
}
