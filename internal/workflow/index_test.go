package workflow

import (
	"math/rand"
	"strconv"
	"testing"

	"bbwfsim/internal/units"
)

// indexOracle is the ID index as two maps, the structure it replaces.
type indexOracle struct {
	tasks map[string]*Task
	files map[string]*File
}

// add adds a task or a file with id to w and the oracle, and checks
// that AddTask and AddFile reject exactly the IDs the oracle already
// holds. Tasks and files have separate ID spaces.
func (o *indexOracle) add(t *testing.T, w *Workflow, id string, task bool) {
	t.Helper()
	if task {
		got, err := w.AddTask(TaskSpec{ID: id})
		if _, dup := o.tasks[id]; dup != (err != nil) {
			t.Fatalf("AddTask(%q): error %v, oracle holds it: %v", id, err, dup)
		}
		if err == nil {
			o.tasks[id] = got
		}
		return
	}
	got, err := w.AddFile(id, units.MB)
	if _, dup := o.files[id]; dup != (err != nil) {
		t.Fatalf("AddFile(%q): error %v, oracle holds it: %v", id, err, dup)
	}
	if err == nil {
		o.files[id] = got
	}
}

// check compares every lookup of ids with the oracle, and the table's
// shape with its invariants.
func (o *indexOracle) check(t *testing.T, w *Workflow, ids []string) {
	t.Helper()
	for _, id := range ids {
		if got, want := w.Task(id), o.tasks[id]; got != want {
			t.Fatalf("Task(%q) = %v, oracle %v", id, got, want)
		}
		if got, want := w.File(id), o.files[id]; got != want {
			t.Fatalf("File(%q) = %v, oracle %v", id, got, want)
		}
	}
	n := len(w.tasks) + len(w.files)
	if n != len(o.tasks)+len(o.files) {
		t.Fatalf("%d entries, oracle %d", n, len(o.tasks)+len(o.files))
	}
	if size := len(w.ids); size&(size-1) != 0 || 2*n > size {
		t.Fatalf("%d entries in a table of %d slots", n, size)
	}
}

// TestIDIndexMatchesMapOracle adds seeded task and file IDs drawn from
// one pool, so that duplicates, and tasks and files sharing an ID, are
// common, and compares every lookup with a map oracle after every add,
// unknown IDs included.
func TestIDIndexMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := make([]string, 300)
		for i := range pool {
			pool[i] = "id-" + strconv.Itoa(rng.Intn(1_000_000))
		}
		w := NewFrom("wf", int(seed%3)*1000)
		o := &indexOracle{tasks: map[string]*Task{}, files: map[string]*File{}}
		for op := 0; op < 600; op++ {
			o.add(t, w, pool[rng.Intn(len(pool))], rng.Intn(2) == 0)
			if op%50 == 0 {
				o.check(t, w, pool)
			}
		}
		o.check(t, w, append(pool, "", "id-", "unknown"))
	}
}

// TestIDIndexCollisions gives every ID one home slot in tables of up to
// 1024 slots, the last one, so that each probe runs the whole cluster and
// wraps around the table's end, with task and file IDs interleaved and
// sharing IDs.
func TestIDIndexCollisions(t *testing.T) {
	const mask = 1023
	var ids []string
	for i := 0; len(ids) < 400; i++ {
		if id := "c" + strconv.Itoa(i); hashID(id)&mask == mask {
			ids = append(ids, id)
		}
	}
	w := New("wf")
	o := &indexOracle{tasks: map[string]*Task{}, files: map[string]*File{}}
	for i, id := range ids[:300] {
		o.add(t, w, id, i%2 == 0)
		if i%3 == 0 {
			o.add(t, w, id, i%2 != 0) // the same ID in the other space
		}
		o.add(t, w, id, i%2 == 0) // a duplicate
	}
	o.check(t, w, ids) // the last 100 are unknown
}

// TestIDIndexSideWorkflow: a NewFrom side workflow numbered after a
// workflow's files indexes its own IDs only, even the ones it shares with
// the first workflow, and its files keep their offset indices.
func TestIDIndexSideWorkflow(t *testing.T) {
	w := New("wf")
	for i := 0; i < 40; i++ {
		w.MustAddFile("f"+strconv.Itoa(i), units.MB)
	}
	w.MustAddTask(TaskSpec{ID: "t", Inputs: []string{"f0"}})
	side := NewFrom("wf+side", len(w.Files()))
	for i := 0; i < 20; i++ {
		side.MustAddFile("f"+strconv.Itoa(2*i), units.MB)
	}
	for i := 0; i < 40; i++ {
		id := "f" + strconv.Itoa(i)
		if f := w.File(id); f == nil || f.Index() != i {
			t.Fatalf("workflow File(%q) = %v", id, f)
		}
		f := side.File(id)
		if i%2 == 1 {
			if f != nil {
				t.Fatalf("side File(%q) = %v, want nil", id, f)
			}
			continue
		}
		if f == nil || f.Index() != len(w.Files())+i/2 || f == w.File(id) {
			t.Fatalf("side File(%q) = %v, want its own file at index %d", id, f, len(w.Files())+i/2)
		}
	}
	if side.Task("t") != nil || w.Task("t") == nil {
		t.Fatal("a task is visible from the other workflow, or missing from its own")
	}
}

// TestTaskListsCapped: the accessors' slices share one backing slice per
// pair, so their capacity stops at their end and an append by a caller
// cannot overwrite the other list.
func TestTaskListsCapped(t *testing.T) {
	w := New("wf")
	for _, id := range []string{"a", "b", "c", "d"} {
		w.MustAddFile(id, units.MB)
	}
	p := w.MustAddTask(TaskSpec{ID: "p", Outputs: []string{"a"}})
	q := w.MustAddTask(TaskSpec{ID: "q", Inputs: []string{"a"}, Outputs: []string{"b", "c"}})
	w.MustAddTask(TaskSpec{ID: "r", Inputs: []string{"b"}})
	w.MustAddTask(TaskSpec{ID: "s", Inputs: []string{"c", "d"}})
	for _, l := range [][]*File{q.Inputs(), q.Outputs()} {
		if cap(l) != len(l) {
			t.Fatalf("file list of len %d has capacity %d", len(l), cap(l))
		}
	}
	for _, l := range [][]*Task{q.Parents(), q.Children()} {
		if cap(l) != len(l) {
			t.Fatalf("edge list of len %d has capacity %d", len(l), cap(l))
		}
	}
	_ = append(q.Inputs(), w.File("d"))
	_ = append(q.Parents(), q)
	if q.Outputs()[0].ID() != "b" || q.Children()[0].ID() != "r" || q.Parents()[0] != p {
		t.Fatal("an append to one list wrote into the other")
	}
	if p.Inputs() != nil || p.Parents() != nil || w.Task("r").Children() != nil {
		t.Fatal("an empty list is not nil")
	}
}

// TestKindAndCoresPacked: every kind round-trips beside the largest core
// count the packed word holds, and a larger count is rejected.
func TestKindAndCoresPacked(t *testing.T) {
	w := New("wf")
	for i, kind := range []Kind{"", KindCompute, KindStageIn, KindStageOut} {
		for _, cores := range []int{0, 1, 42, maxCores} {
			task := w.MustAddTask(TaskSpec{ID: strconv.Itoa(i) + "/" + strconv.Itoa(cores), Kind: kind, Cores: cores})
			want, wantCores := kind, cores
			if want == "" {
				want = KindCompute
			}
			if wantCores == 0 {
				wantCores = 1
			}
			if task.Kind() != want || task.Cores() != wantCores {
				t.Fatalf("task %s: kind %q cores %d, want %q and %d", task.ID(), task.Kind(), task.Cores(), want, wantCores)
			}
		}
	}
	if _, err := w.AddTask(TaskSpec{ID: "huge", Cores: maxCores + 1}); err == nil {
		t.Fatal("a core count past the packed word was accepted")
	}
}
