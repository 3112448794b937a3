package workflow

import (
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"testing/quick"

	"bbwfsim/internal/units"
)

// diamond builds the classic 4-task diamond: a → (b, c) → d.
func diamond(t *testing.T) *Workflow {
	t.Helper()
	w := New("diamond")
	w.MustAddFile("in", 10*units.MiB)
	w.MustAddFile("ab", 1*units.MiB)
	w.MustAddFile("ac", 2*units.MiB)
	w.MustAddFile("bd", 3*units.MiB)
	w.MustAddFile("cd", 4*units.MiB)
	w.MustAddFile("out", 5*units.MiB)
	w.MustAddTask(TaskSpec{ID: "a", Work: 1e9, Inputs: []string{"in"}, Outputs: []string{"ab", "ac"}})
	w.MustAddTask(TaskSpec{ID: "b", Work: 2e9, Inputs: []string{"ab"}, Outputs: []string{"bd"}})
	w.MustAddTask(TaskSpec{ID: "c", Work: 3e9, Inputs: []string{"ac"}, Outputs: []string{"cd"}})
	w.MustAddTask(TaskSpec{ID: "d", Work: 4e9, Inputs: []string{"bd", "cd"}, Outputs: []string{"out"}})
	return w
}

func TestDiamondStructure(t *testing.T) {
	w := diamond(t)
	if err := w.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	a, b, c, d := w.Task("a"), w.Task("b"), w.Task("c"), w.Task("d")
	if got := a.Children(); len(got) != 2 || got[0] != b || got[1] != c {
		t.Errorf("a.Children() wrong: %v", ids(got))
	}
	if got := d.Parents(); len(got) != 2 || got[0] != b || got[1] != c {
		t.Errorf("d.Parents() wrong: %v", ids(got))
	}
	if got := w.Sources(); len(got) != 1 || got[0] != a {
		t.Errorf("Sources() wrong: %v", ids(got))
	}
	if got := w.Sinks(); len(got) != 1 || got[0] != d {
		t.Errorf("Sinks() wrong: %v", ids(got))
	}
	if !w.File("in").IsInput() {
		t.Error("file 'in' should be a workflow input")
	}
	if w.File("ab").IsInput() {
		t.Error("file 'ab' should not be a workflow input")
	}
	if w.File("ab").Producer() != a {
		t.Error("file 'ab' producer wrong")
	}
}

func ids(ts []*Task) []string {
	var out []string
	for _, t := range ts {
		out = append(out, t.ID())
	}
	return out
}

func TestTopologicalOrder(t *testing.T) {
	w := diamond(t)
	order, err := w.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, task := range order {
		pos[task.ID()] = i
	}
	if pos["a"] > pos["b"] || pos["a"] > pos["c"] || pos["b"] > pos["d"] || pos["c"] > pos["d"] {
		t.Errorf("topological order violated: %v", ids(order))
	}
	// Deterministic tie-break by insertion: b before c.
	if pos["b"] > pos["c"] {
		t.Errorf("tie-break not by insertion order: %v", ids(order))
	}
}

func TestLevels(t *testing.T) {
	w := diamond(t)
	levels, err := w.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 3 {
		t.Fatalf("got %d levels, want 3", len(levels))
	}
	if len(levels[0]) != 1 || levels[0][0].ID() != "a" {
		t.Errorf("level 0 = %v, want [a]", ids(levels[0]))
	}
	if len(levels[1]) != 2 {
		t.Errorf("level 1 = %v, want two tasks", ids(levels[1]))
	}
	if len(levels[2]) != 1 || levels[2][0].ID() != "d" {
		t.Errorf("level 2 = %v, want [d]", ids(levels[2]))
	}
}

func TestCriticalPath(t *testing.T) {
	w := diamond(t)
	// Weight each task by its work in Gflops: a=1, b=2, c=3, d=4.
	path, total, err := w.CriticalPath(func(task *Task) float64 {
		return float64(task.Work()) / 1e9
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-8) > 1e-12 { // a(1) + c(3) + d(4)
		t.Errorf("critical path length = %v, want 8", total)
	}
	want := []string{"a", "c", "d"}
	got := ids(path)
	if len(got) != len(want) {
		t.Fatalf("critical path = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("critical path = %v, want %v", got, want)
		}
	}
}

func TestCycleDetection(t *testing.T) {
	w := New("cyclic")
	w.MustAddFile("x", 1)
	w.MustAddFile("y", 1)
	w.MustAddTask(TaskSpec{ID: "t1", Inputs: []string{"x"}, Outputs: []string{"y"}})
	w.MustAddTask(TaskSpec{ID: "t2", Inputs: []string{"y"}, Outputs: []string{"x"}})
	if err := w.Validate(); err == nil {
		t.Error("Validate accepted a cyclic workflow")
	}
}

func TestAddFileErrors(t *testing.T) {
	w := New("t")
	if _, err := w.AddFile("", 1); err == nil {
		t.Error("empty file ID accepted")
	}
	if _, err := w.AddFile("f", -1); err == nil {
		t.Error("negative size accepted")
	}
	w.MustAddFile("f", 1)
	if _, err := w.AddFile("f", 2); err == nil {
		t.Error("duplicate file ID accepted")
	}
}

func TestAddTaskErrors(t *testing.T) {
	w := New("t")
	w.MustAddFile("f", 1)
	w.MustAddFile("g", 1)
	w.MustAddTask(TaskSpec{ID: "p", Outputs: []string{"g"}})
	cases := []TaskSpec{
		{ID: ""},
		{ID: "p"}, // duplicate
		{ID: "x", Work: -1},
		{ID: "x", Alpha: -0.1},
		{ID: "x", Alpha: 1.5},
		{ID: "x", LambdaIO: 1.0},
		{ID: "x", LambdaIO: -0.2},
		{ID: "x", Cores: -2},
		{ID: "x", Kind: "teleport"},
		{ID: "x", Inputs: []string{"nope"}},
		{ID: "x", Outputs: []string{"nope"}},
		{ID: "x", Inputs: []string{"f", "f"}},
		{ID: "x", Outputs: []string{"g"}}, // already produced by p
		{ID: "x", Inputs: []string{"f"}, Outputs: []string{"f"}},
	}
	for i, spec := range cases {
		if _, err := w.AddTask(spec); err == nil {
			t.Errorf("case %d (%+v): invalid task accepted", i, spec)
		}
	}
	// Failed AddTask must not leave partial wiring behind.
	if len(w.File("f").Consumers()) != 0 {
		t.Error("failed AddTask left consumer wiring on file f")
	}
}

func TestTaskDefaults(t *testing.T) {
	w := New("t")
	task := w.MustAddTask(TaskSpec{ID: "only"})
	if task.Cores() != 1 {
		t.Errorf("default cores = %d, want 1", task.Cores())
	}
	if task.Kind() != KindCompute {
		t.Errorf("default kind = %v, want compute", task.Kind())
	}
	if task.Name() != "only" {
		t.Errorf("default name = %q, want task ID", task.Name())
	}
}

func TestInputOutputBytes(t *testing.T) {
	w := diamond(t)
	d := w.Task("d")
	total := func(fs []*File) units.Bytes {
		var sum units.Bytes
		for _, f := range fs {
			sum += f.Size()
		}
		return sum
	}
	if in := total(d.Inputs()); in != 7*units.MiB {
		t.Errorf("d's inputs total %v, want 7 MiB", in)
	}
	if out := total(d.Outputs()); out != 5*units.MiB {
		t.Errorf("d's outputs total %v, want 5 MiB", out)
	}
}

func TestComputeStats(t *testing.T) {
	w := diamond(t)
	s, err := w.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Tasks != 4 || s.Files != 6 {
		t.Errorf("Tasks/Files = %d/%d, want 4/6", s.Tasks, s.Files)
	}
	if s.InputFiles != 1 || s.InputBytes != 10*units.MiB {
		t.Errorf("InputFiles/Bytes = %d/%v", s.InputFiles, s.InputBytes)
	}
	if s.TotalBytes != 25*units.MiB {
		t.Errorf("TotalBytes = %v, want 25 MiB", s.TotalBytes)
	}
	if s.IntermedBytes != 10*units.MiB { // ab+ac+bd+cd
		t.Errorf("IntermedBytes = %v, want 10 MiB", s.IntermedBytes)
	}
	if s.TotalWork != 10e9 {
		t.Errorf("TotalWork = %v, want 10 GFlop", s.TotalWork)
	}
	if s.MaxParallel != 2 || s.Depth != 3 {
		t.Errorf("MaxParallel/Depth = %d/%d, want 2/3", s.MaxParallel, s.Depth)
	}
	if s.EdgeCount != 4 {
		t.Errorf("EdgeCount = %d, want 4", s.EdgeCount)
	}
	if s.SourceCount != 1 || s.SinkCount != 1 {
		t.Errorf("Source/Sink = %d/%d, want 1/1", s.SourceCount, s.SinkCount)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	w := diamond(t)
	w.MustAddTask(TaskSpec{
		ID: "stage", Name: "stage_in", Kind: KindStageIn,
		Cores: 1, LambdaIO: 0.9, Outputs: []string{},
	})
	data, err := Marshal(w)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if back.Name() != w.Name() || len(back.Tasks()) != len(w.Tasks()) || len(back.Files()) != len(w.Files()) {
		t.Fatalf("round trip changed shape: %d tasks %d files", len(back.Tasks()), len(back.Files()))
	}
	for _, orig := range w.Tasks() {
		got := back.Task(orig.ID())
		if got == nil {
			t.Fatalf("task %q lost in round trip", orig.ID())
		}
		if got.Work() != orig.Work() || got.Cores() != orig.Cores() ||
			got.Alpha() != orig.Alpha() || got.lambdaIO != orig.lambdaIO ||
			got.Kind() != orig.Kind() || got.Name() != orig.Name() {
			t.Errorf("task %q fields changed in round trip", orig.ID())
		}
		if len(got.Inputs()) != len(orig.Inputs()) || len(got.Outputs()) != len(orig.Outputs()) {
			t.Errorf("task %q wiring changed in round trip", orig.ID())
		}
	}
	for _, f := range w.Files() {
		if back.File(f.ID()).Size() != f.Size() {
			t.Errorf("file %q size changed in round trip", f.ID())
		}
	}
}

func TestSaveLoad(t *testing.T) {
	path := t.TempDir() + "/wf.json"
	w := diamond(t)
	data, err := Marshal(w)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(back.Tasks()) != 4 {
		t.Errorf("loaded %d tasks, want 4", len(back.Tasks()))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`not json`,
		`{"name":"x","files":[{"id":"f","size":"huge"}]}`,
		`{"name":"x","files":[],"tasks":[{"id":"t","inputs":["ghost"]}]}`,
		`{"name":"x","files":[{"id":"a","size":"1"},{"id":"b","size":"1"}],
		  "tasks":[{"id":"t1","inputs":["a"],"outputs":["b"]},
		           {"id":"t2","inputs":["b"],"outputs":["a"]}]}`,
	}
	for i, c := range cases {
		if _, err := Parse([]byte(c)); err == nil {
			t.Errorf("case %d: Parse accepted invalid input", i)
		}
	}
}

// randomDAG builds a random layered DAG; edges only go from lower to higher
// task indices, so it is acyclic by construction.
func randomDAG(seed int64) *Workflow {
	rng := rand.New(rand.NewSource(seed))
	w := New("random")
	n := 2 + rng.Intn(40)
	for i := 0; i < n; i++ {
		id := "t" + strconv.Itoa(i)
		var inputs []string
		for j := 0; j < i; j++ {
			if rng.Intn(5) == 0 {
				inputs = append(inputs, "f"+strconv.Itoa(j))
			}
		}
		out := "f" + strconv.Itoa(i)
		w.MustAddFile(out, units.Bytes(1+rng.Intn(1000)))
		w.MustAddTask(TaskSpec{
			ID:      id,
			Work:    units.Flops(rng.Float64() * 1e12),
			Cores:   1 + rng.Intn(32),
			Inputs:  inputs,
			Outputs: []string{out},
		})
	}
	return w
}

// Property: random layered DAGs validate, their topological order respects
// every dependency, and level assignment is consistent with parents.
func TestRandomDAGInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		w := randomDAG(seed)
		order, err := w.TopologicalOrder()
		if err != nil {
			return false
		}
		pos := map[*Task]int{}
		for i, task := range order {
			pos[task] = i
		}
		for _, task := range w.Tasks() {
			for _, p := range task.Parents() {
				if pos[p] >= pos[task] {
					return false
				}
			}
		}
		levels, err := w.Levels()
		if err != nil {
			return false
		}
		depth := map[*Task]int{}
		for d, lv := range levels {
			for _, task := range lv {
				depth[task] = d
			}
		}
		for _, task := range w.Tasks() {
			want := 0
			for _, p := range task.Parents() {
				if depth[p]+1 > want {
					want = depth[p] + 1
				}
			}
			if depth[task] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: critical path length is at least the weight of any single task
// and at most the sum of all weights.
func TestCriticalPathBoundsQuick(t *testing.T) {
	f := func(seed int64) bool {
		w := randomDAG(seed)
		dur := func(task *Task) float64 { return float64(task.Work()) }
		_, total, err := w.CriticalPath(dur)
		if err != nil {
			return false
		}
		var sum, max float64
		for _, task := range w.Tasks() {
			sum += dur(task)
			if dur(task) > max {
				max = dur(task)
			}
		}
		return total >= max-1e-9 && total <= sum+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: JSON round trips preserve structure for random DAGs.
func TestJSONRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		w := randomDAG(seed)
		data, err := Marshal(w)
		if err != nil {
			return false
		}
		back, err := Parse(data)
		if err != nil {
			return false
		}
		if len(back.Tasks()) != len(w.Tasks()) || len(back.Files()) != len(w.Files()) {
			return false
		}
		for _, task := range w.Tasks() {
			b := back.Task(task.ID())
			if b == nil || len(b.Inputs()) != len(task.Inputs()) || b.Work() != task.Work() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestTaskMemory(t *testing.T) {
	w := New("mem")
	task := w.MustAddTask(TaskSpec{ID: "m", Memory: 4 * units.GiB})
	if task.Memory() != 4*units.GiB {
		t.Errorf("Memory = %v, want 4 GiB", task.Memory())
	}
	if _, err := w.AddTask(TaskSpec{ID: "bad", Memory: -1}); err == nil {
		t.Error("negative memory accepted")
	}
	// Memory survives the JSON round trip.
	data, err := Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Task("m").Memory() != 4*units.GiB {
		t.Error("memory lost in JSON round trip")
	}
}

// scratchSize counts the files AddTask's scratch set holds.
func scratchSize(w *Workflow) int {
	n := 0
	for _, s := range w.seen {
		if s != 0 {
			n++
		}
	}
	return n
}

// TestAddTaskFileErrors: AddTask reports the first bad file in spec order,
// leaves its scratch set empty, and wires nothing on failure.
func TestAddTaskFileErrors(t *testing.T) {
	const width = 3
	w := New("t")
	var ins, outs []string
	for i := 0; i < width; i++ {
		ins = append(ins, w.MustAddFile("in"+strconv.Itoa(i), 1).ID())
		outs = append(outs, w.MustAddFile("out"+strconv.Itoa(i), 1).ID())
	}
	w.MustAddFile("taken", 1)
	w.MustAddTask(TaskSpec{ID: "p", Outputs: []string{"taken"}})
	with := func(list []string, extra ...string) []string {
		return append(append([]string(nil), list...), extra...)
	}
	cases := []struct {
		spec TaskSpec
		want string
	}{
		{TaskSpec{ID: "x", Inputs: with(ins, "nope"), Outputs: outs},
			`workflow: task "x" reads unknown file "nope"`},
		{TaskSpec{ID: "x", Inputs: with(ins, ins[1], "nope"), Outputs: outs},
			`workflow: task "x" reads file "in1" twice`},
		{TaskSpec{ID: "x", Inputs: ins, Outputs: with(outs, "nope", outs[0])},
			`workflow: task "x" writes unknown file "nope"`},
		{TaskSpec{ID: "x", Inputs: ins, Outputs: with(outs, outs[2], ins[0])},
			`workflow: task "x" writes file "out2" twice`},
		{TaskSpec{ID: "x", Inputs: ins, Outputs: with(outs, ins[width-1], outs[0])},
			`workflow: task "x" both reads and writes file "in2"`},
		{TaskSpec{ID: "x", Inputs: ins, Outputs: with(outs, "taken")},
			`workflow: file "taken" produced by both "p" and "x"`},
	}
	for i, c := range cases {
		_, err := w.AddTask(c.spec)
		if err == nil || err.Error() != c.want {
			t.Errorf("case %d: err = %v, want %s", i, err, c.want)
		}
		if n := scratchSize(w); n != 0 {
			t.Errorf("case %d: scratch set keeps %d files", i, n)
		}
	}
	for _, f := range w.Files() {
		if f.ID() != "taken" && (len(f.Consumers()) != 0 || f.Producer() != nil) {
			t.Fatalf("failed AddTask left wiring on %s", f.ID())
		}
	}
	x := w.MustAddTask(TaskSpec{ID: "x", Inputs: with(ins, "taken"), Outputs: outs})
	if scratchSize(w) != 0 || len(x.Inputs()) != width+1 || len(x.Outputs()) != width {
		t.Errorf("accepted task has %d inputs, %d outputs, scratch %d",
			len(x.Inputs()), len(x.Outputs()), scratchSize(w))
	}
	if ps := x.Parents(); len(ps) != 1 || ps[0].ID() != "p" {
		t.Errorf("parents of x = %v", ps)
	}
}

// TestEdgeListsSorted: parents and children come out ordered by insertion
// index even when AddTask discovers them out of order.
func TestEdgeListsSorted(t *testing.T) {
	w := New("t")
	const n = 40
	for i := 0; i < n; i++ {
		w.MustAddFile("f"+strconv.Itoa(i), 1)
	}
	w.MustAddFile("g0", 1)
	w.MustAddFile("g1", 1)
	// d0 reads g1 and d1 reads g0, so q (outputs g0, g1) meets its
	// children as d1, d0.
	w.MustAddTask(TaskSpec{ID: "d0", Inputs: []string{"g1"}})
	w.MustAddTask(TaskSpec{ID: "d1", Inputs: []string{"g0"}})
	w.MustAddTask(TaskSpec{ID: "q", Outputs: []string{"g0", "g1"}})
	// Producers in reverse file order, then a join reading the files in
	// ascending order: it meets its parents by descending index.
	for j := n - 1; j >= 0; j-- {
		w.MustAddTask(TaskSpec{ID: "p" + strconv.Itoa(j), Outputs: []string{"f" + strconv.Itoa(j)}})
	}
	var in []string
	for j := 0; j < n; j++ {
		in = append(in, "f"+strconv.Itoa(j))
	}
	join := w.MustAddTask(TaskSpec{ID: "join", Inputs: in})
	for _, task := range w.Tasks() {
		for _, list := range [][]*Task{task.Parents(), task.Children()} {
			for k := 1; k < len(list); k++ {
				if list[k-1].Index() >= list[k].Index() {
					t.Fatalf("%s: edge list not strictly ordered by index at %d", task.ID(), k)
				}
			}
		}
	}
	if got := len(join.Parents()); got != n {
		t.Errorf("join has %d parents, want %d", got, n)
	}
	if got := w.Task("q").Children(); len(got) != 2 || got[0].ID() != "d0" {
		t.Errorf("q's children = %v, want d0, d1", got)
	}
}

// TestValidateMatchesTopologicalOrder: the count-only Validate reports
// exactly TopologicalOrder's error, on seeded random DAGs and on graphs
// whose consumers are added before their producers, which can close
// cycles (with tasks downstream of them left unordered too).
func TestValidateMatchesTopologicalOrder(t *testing.T) {
	cyclic := 0
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		dag := seed%2 == 0
		w := New("v" + strconv.FormatInt(seed, 10))
		for i := 0; i < n; i++ {
			w.MustAddFile("f"+strconv.Itoa(i), 1)
		}
		for i := 0; i < n; i++ {
			var ins []string
			for j := 0; j < n; j++ {
				// A DAG reads only earlier tasks' files; otherwise any
				// other task's file, producer added yet or not.
				if j != i && (j < i || !dag) && rng.Intn(n) < 2 {
					ins = append(ins, "f"+strconv.Itoa(j))
				}
			}
			w.MustAddTask(TaskSpec{ID: "t" + strconv.Itoa(i), Inputs: ins, Outputs: []string{"f" + strconv.Itoa(i)}})
		}
		_, want := w.TopologicalOrder()
		got := w.Validate()
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("seed %d: Validate() = %v, TopologicalOrder error %v", seed, got, want)
		}
		if dag && got != nil {
			t.Fatalf("seed %d: DAG rejected: %v", seed, got)
		}
		if got != nil {
			cyclic++
		}
	}
	if cyclic < 50 {
		t.Fatalf("only %d of the seeded graphs have a cycle", cyclic)
	}
}
