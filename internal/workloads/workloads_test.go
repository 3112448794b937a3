package workloads

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

func TestChainShape(t *testing.T) {
	w, err := Chain(5, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	levels, err := w.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 5 {
		t.Errorf("chain depth = %d, want 5", len(levels))
	}
	for _, lv := range levels {
		if len(lv) != 1 {
			t.Errorf("chain level width = %d, want 1", len(lv))
		}
	}
	// 4 edges × default FewLarge (1 file).
	if got := len(w.Files()); got != 4 {
		t.Errorf("files = %d, want 4", got)
	}
}

func TestForkJoinShape(t *testing.T) {
	w, err := ForkJoin(8, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(w.Tasks()); got != 10 {
		t.Fatalf("tasks = %d, want 10", got)
	}
	src, sink := w.Task("source"), w.Task("sink")
	if len(src.Children()) != 8 {
		t.Errorf("source children = %d, want 8", len(src.Children()))
	}
	if len(sink.Parents()) != 8 {
		t.Errorf("sink parents = %d, want 8", len(sink.Parents()))
	}
}

func TestReduceTreeShape(t *testing.T) {
	w, err := ReduceTree(8, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	// 8 leaves + 4 + 2 + 1 = 15 tasks; single sink.
	if got := len(w.Tasks()); got != 15 {
		t.Errorf("tasks = %d, want 15", got)
	}
	if got := len(w.Sinks()); got != 1 {
		t.Errorf("sinks = %d, want 1", got)
	}
	levels, err := w.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 4 { // leaves + 3 reduction rounds
		t.Errorf("depth = %d, want 4", len(levels))
	}
}

func TestReduceTreeOddLeaves(t *testing.T) {
	w, err := ReduceTree(5, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(w.Sinks()); got != 1 {
		t.Errorf("sinks = %d, want 1 (odd leaf carried over)", got)
	}
}

func TestBroadcastSharesOneEdge(t *testing.T) {
	w, err := Broadcast(8, Params{Regime: FewLarge})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(w.Files()); got != 1 {
		t.Fatalf("files = %d, want 1 shared file", got)
	}
	if got := len(w.Files()[0].Consumers()); got != 8 {
		t.Errorf("shared file consumers = %d, want 8", got)
	}
}

func TestRegimesCarrySameBytes(t *testing.T) {
	volume := func(r FileRegime) units.Bytes { return units.Bytes(r.Count) * r.Size }
	if volume(ManySmall) != volume(FewLarge) {
		t.Errorf("regimes differ in volume: %v vs %v", volume(ManySmall), volume(FewLarge))
	}
	small, err := Chain(3, Params{Regime: ManySmall})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Chain(3, Params{Regime: FewLarge})
	if err != nil {
		t.Fatal(err)
	}
	ss, _ := small.ComputeStats()
	ls, _ := large.ComputeStats()
	if ss.TotalBytes != ls.TotalBytes {
		t.Errorf("regime volumes differ: %v vs %v", ss.TotalBytes, ls.TotalBytes)
	}
	if ss.Files != 64*ls.Files {
		t.Errorf("file counts: %d vs %d, want 64×", ss.Files, ls.Files)
	}
}

func TestRandomLayeredValidAndDeterministic(t *testing.T) {
	f := func(seed int64, rawDensity uint8) bool {
		density := float64(rawDensity%101) / 100
		a, err := RandomLayered(seed, 3, 5, density, Params{})
		if err != nil {
			return false
		}
		if a.Validate() != nil {
			return false
		}
		b, err := RandomLayered(seed, 3, 5, density, Params{})
		if err != nil {
			return false
		}
		if len(a.Tasks()) != len(b.Tasks()) || len(a.Files()) != len(b.Files()) {
			return false
		}
		for i, task := range a.Tasks() {
			if b.Tasks()[i].ID() != task.ID() || len(b.Tasks()[i].Inputs()) != len(task.Inputs()) {
				return false
			}
		}
		// Non-source tasks always have at least one parent (connected).
		levels, err := a.Levels()
		if err != nil {
			return false
		}
		return len(levels) == 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := Chain(0, Params{}); err == nil {
		t.Error("chain(0) accepted")
	}
	if _, err := ForkJoin(0, Params{}); err == nil {
		t.Error("forkjoin(0) accepted")
	}
	if _, err := ReduceTree(1, Params{}); err == nil {
		t.Error("reduce(1) accepted")
	}
	if _, err := Broadcast(0, Params{}); err == nil {
		t.Error("broadcast(0) accepted")
	}
	if _, err := RandomLayered(1, 0, 3, 0.5, Params{}); err == nil {
		t.Error("layered(0 layers) accepted")
	}
	if _, err := RandomLayered(1, 3, 3, 1.5, Params{}); err == nil {
		t.Error("density 1.5 accepted")
	}
}

func TestPatternsCatalog(t *testing.T) {
	pats, err := Patterns(Params{Regime: ManySmall, Work: units.Flops(10e9)})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"chain", "fork-join", "reduce-tree", "broadcast", "random-layered"}
	for _, name := range want {
		w, ok := pats[name]
		if !ok {
			t.Errorf("pattern %q missing", name)
			continue
		}
		if err := w.Validate(); err != nil {
			t.Errorf("pattern %q invalid: %v", name, err)
		}
	}
}

// workflowIDs lists a workflow's name, task IDs, task names and file IDs
// in insertion order.
func workflowIDs(w *workflow.Workflow) []string {
	ids := []string{w.Name()}
	for _, t := range w.Tasks() {
		ids = append(ids, t.ID(), t.Name())
	}
	for _, f := range w.Files() {
		ids = append(ids, f.ID())
	}
	return ids
}

// TestGeneratorIDsMatchSprintf: the pattern generators' workflow names,
// task IDs and names and file IDs, in insertion order, and the campaign's
// job IDs equal their fmt.Sprintf forms; adaptation breaks victim ties by
// file ID, so IDs must not move.
func TestGeneratorIDsMatchSprintf(t *testing.T) {
	for _, regime := range []FileRegime{FewLarge, ManySmall} {
		p := Params{Regime: regime}
		edge := func(label string) (ids []string) {
			for i := 0; i < regime.Count; i++ {
				ids = append(ids, fmt.Sprintf("%s_f%03d", label, i))
			}
			return ids
		}
		check := func(w *workflow.Workflow, err error, name string, tasks [][2]string, files []string) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			want := []string{name}
			for _, task := range tasks {
				want = append(want, task[0], task[1])
			}
			want = append(want, files...)
			if got := workflowIDs(w); !slices.Equal(got, want) {
				t.Fatalf("%s: IDs\n%v\nwant\n%v", name, got, want)
			}
		}

		var tasks [][2]string
		var files []string
		w, err := Chain(12, p)
		for i := 0; i < 12; i++ {
			if i < 11 {
				files = append(files, edge(fmt.Sprintf("e%03d", i))...)
			}
			tasks = append(tasks, [2]string{fmt.Sprintf("t%03d", i), "stage"})
		}
		check(w, err, fmt.Sprintf("chain-%d", 12), tasks, files)

		tasks, files = nil, nil
		w, err = ForkJoin(11, p)
		for i := 0; i < 11; i++ {
			files = append(files, edge(fmt.Sprintf("fork%03d", i))...)
		}
		tasks = append(tasks, [2]string{"source", "source"})
		for i := 0; i < 11; i++ {
			files = append(files, edge(fmt.Sprintf("join%03d", i))...)
			tasks = append(tasks, [2]string{fmt.Sprintf("worker%03d", i), "worker"})
		}
		tasks = append(tasks, [2]string{"sink", "sink"})
		check(w, err, fmt.Sprintf("forkjoin-%d", 11), tasks, files)

		tasks, files = nil, nil
		w, err = ReduceTree(13, p)
		for i := 0; i < 13; i++ {
			files = append(files, edge(fmt.Sprintf("leaf%03d", i))...)
			tasks = append(tasks, [2]string{fmt.Sprintf("leaf%03d", i), "leaf"})
		}
		for n, round := 13, 0; n > 1; n, round = (n+1)/2, round+1 {
			for i := 0; i+1 < n; i += 2 {
				if n > 2 {
					files = append(files, edge(fmt.Sprintf("r%d_%03d", round, i/2))...)
				}
				tasks = append(tasks, [2]string{fmt.Sprintf("reduce%d_%03d", round, i/2), "reduce"})
			}
		}
		check(w, err, fmt.Sprintf("reduce-%d", 13), tasks, files)

		tasks = [][2]string{{"producer", "producer"}}
		w, err = Broadcast(10, p)
		for i := 0; i < 10; i++ {
			tasks = append(tasks, [2]string{fmt.Sprintf("reader%03d", i), "reader"})
		}
		check(w, err, fmt.Sprintf("broadcast-%d", 10), tasks, edge("shared"))

		tasks, files = nil, nil
		w, err = RandomLayered(5, 11, 12, 0.3, p)
		for l := 0; l < 11; l++ {
			for i := 0; i < 12; i++ {
				if l < 10 {
					files = append(files, edge(fmt.Sprintf("l%02d_%03d", l, i))...)
				}
				tasks = append(tasks, [2]string{fmt.Sprintf("t%02d_%03d", l, i), fmt.Sprintf("layer%02d", l)})
			}
		}
		check(w, err, fmt.Sprintf("layered-%dx%d", 11, 12), tasks, files)
	}

	jobs, err := Campaign(CampaignSpec{Jobs: 1200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if want := fmt.Sprintf("job-%06d", i); j.ID != want {
			t.Fatalf("job %d: ID %q, want %q", i, j.ID, want)
		}
	}
}
