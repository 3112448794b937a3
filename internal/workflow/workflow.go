// Package workflow models scientific workflows as directed acyclic graphs:
// vertices are tasks, and edges are induced by the files tasks produce and
// consume, exactly as the paper's simulator defines its input ("the workflow
// description is a graph in which vertices are tasks and edges are induced
// by input/output files of these tasks").
//
// Each task carries its total sequential compute work (in flops, excluding
// I/O), an Amdahl non-parallelizable fraction, a requested core count, and
// the observed fraction of time spent in I/O (λ_io) used by the calibration
// model in internal/calib.
package workflow

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"
	"strconv"

	"bbwfsim/internal/units"
)

// Kind distinguishes ordinary compute tasks from data staging tasks.
type Kind string

const (
	// KindCompute is a normal task: read inputs, compute, write outputs.
	KindCompute Kind = "compute"
	// KindStageIn is a data staging task: it sequentially copies workflow
	// input files from long-term storage into the burst buffer, file by
	// file, as the paper's (always sequential) stage-in task does.
	KindStageIn Kind = "stage-in"
	// KindStageOut drains results back to long-term storage: it
	// sequentially copies its input files from wherever they live (usually
	// a burst buffer) to the PFS, completing the "staging in/out" cycle.
	KindStageOut Kind = "stage-out"
)

// File is a workflow data item.
type File struct {
	id        string
	size      units.Bytes
	index     int
	producer  *Task
	consumers []*Task
}

// ID returns the file's unique identifier.
func (f *File) ID() string { return f.id }

// Index returns the file's insertion index within its workflow plus the
// workflow's file base (0 unless built by NewFrom) — a dense
// base..base+len(Files())-1 range, so per-file run state can live in
// slices instead of maps.
func (f *File) Index() int { return f.index }

// Size returns the file's size.
func (f *File) Size() units.Bytes { return f.size }

// Producer returns the task that writes this file, or nil for workflow
// inputs.
func (f *File) Producer() *Task { return f.producer }

// Consumers returns the tasks that read this file, in insertion order.
func (f *File) Consumers() []*Task { return f.consumers }

// IsInput reports whether the file is a workflow input (no producer).
func (f *File) IsInput() bool { return f.producer == nil }

// Task is a workflow vertex. A large run keeps every task resident, so
// the struct is packed into 128 bytes, one allocator size class: the kind
// and core count share a word, and each pair of lists shares one backing
// slice split at a count.
type Task struct {
	id       string
	name     string // category label, e.g. "resample"
	work     units.Flops
	memory   units.Bytes
	alpha    float64
	lambdaIO float64
	// files holds the task's inputs, then its outputs: [:nIn] and [nIn:].
	// Both are fixed by AddTask.
	files []*File
	// edges holds the task's parents, then its children: [:nPar] and
	// [nPar:]. They are maintained incrementally by AddTask (not lazily —
	// workflows are shared across parallel campaign runs, so the accessors
	// must be read-only), and each stays sorted by insertion index.
	edges []*Task
	index int32 // insertion order, for deterministic tie-breaking
	nIn   int32
	nPar  int32
	// coreKind holds the requested core count in its low bits and the
	// kind's code (kinds) in its top two.
	coreKind uint32
}

// kinds are the task kinds by the code Task.coreKind stores.
var kinds = [...]Kind{KindCompute, KindStageIn, KindStageOut}

const (
	kindShift = 30
	// maxCores is the largest core count a task can request.
	maxCores = 1<<kindShift - 1
)

// ID returns the task's unique identifier.
func (t *Task) ID() string { return t.id }

// Name returns the task's category label (several tasks share one name).
func (t *Task) Name() string { return t.name }

// Kind returns the task kind.
func (t *Task) Kind() Kind { return kinds[t.coreKind>>kindShift] }

// Work returns the task's total sequential compute work, I/O excluded.
func (t *Task) Work() units.Flops { return t.work }

// Cores returns the task's requested core count.
func (t *Task) Cores() int { return int(t.coreKind & maxCores) }

// Memory returns the task's peak memory demand (0 = unconstrained).
func (t *Task) Memory() units.Bytes { return t.memory }

// Alpha returns the task's Amdahl non-parallelizable fraction.
func (t *Task) Alpha() float64 { return t.alpha }

// Index returns the task's insertion index.
func (t *Task) Index() int { return int(t.index) }

// Inputs returns the files the task reads.
func (t *Task) Inputs() []*File { return span(t.files, 0, int(t.nIn)) }

// Outputs returns the files the task writes.
func (t *Task) Outputs() []*File { return span(t.files, int(t.nIn), len(t.files)) }

// Parents returns the distinct producers of the task's inputs, ordered by
// task insertion index. The slice is the task's own edge list — callers
// must not mutate it.
func (t *Task) Parents() []*Task { return span(t.edges, 0, int(t.nPar)) }

// Children returns the distinct consumers of the task's outputs, ordered by
// task insertion index. The slice is the task's own edge list — callers
// must not mutate it.
func (t *Task) Children() []*Task { return span(t.edges, int(t.nPar), len(t.edges)) }

// span returns s[lo:hi] with its capacity capped at hi, so an append to
// one list of a shared backing slice cannot write into the other; an
// empty span is nil.
func span[T any](s []T, lo, hi int) []T {
	if lo == hi {
		return nil
	}
	return s[lo:hi:hi]
}

// lastParent and lastChild return the task's largest-index parent and
// child, or nil.
func (t *Task) lastParent() *Task {
	if t.nPar == 0 {
		return nil
	}
	return t.edges[t.nPar-1]
}

func (t *Task) lastChild() *Task {
	if int(t.nPar) == len(t.edges) {
		return nil
	}
	return t.edges[len(t.edges)-1]
}

// addParent appends p to the task's parents, shifting its children up by
// one. p carries the largest index so far, so the parents stay sorted.
func (t *Task) addParent(p *Task) {
	t.edges = slices.Insert(t.edges, int(t.nPar), p)
	t.nPar++
}

// TaskSpec describes a task to add to a workflow.
type TaskSpec struct {
	ID       string
	Name     string
	Kind     Kind        // defaults to KindCompute
	Work     units.Flops // total sequential compute work
	Cores    int         // requested cores, defaults to 1
	Memory   units.Bytes // peak memory demand, 0 = unconstrained
	Alpha    float64     // Amdahl non-parallelizable fraction
	LambdaIO float64     // observed I/O time fraction
	Inputs   []string    // file IDs, must exist
	Outputs  []string    // file IDs, must exist and be unproduced
}

// Workflow is a DAG of tasks and files.
type Workflow struct {
	name  string
	tasks []*Task
	files []*File
	// ids indexes tasks and files by ID (index.go).
	ids      []int32
	fileBase int // index of the first file
	// seen is AddTask's scratch set: which of the task's files it reads
	// and writes, indexed by File.Index() - fileBase. It is all zero
	// between calls.
	seen []uint8
}

// Bits of Workflow.seen.
const (
	seenRead uint8 = 1 << iota
	seenWritten
)

// New returns an empty workflow.
func New(name string) *Workflow { return NewFrom(name, 0) }

// NewFrom returns an empty workflow whose files are numbered from base. A
// run's files outside its workflow's DAG (checkpoint snapshots, background
// traffic) live in such a workflow, numbered after the DAG's files, so
// every file of the run has an index of its own.
func NewFrom(name string, base int) *Workflow {
	return &Workflow{name: name, fileBase: base}
}

// Name returns the workflow name.
func (w *Workflow) Name() string { return w.name }

// Tasks returns all tasks in insertion order.
func (w *Workflow) Tasks() []*Task { return w.tasks }

// Files returns all files in insertion order.
func (w *Workflow) Files() []*File { return w.files }

// Task returns the task with the given ID, or nil.
func (w *Workflow) Task(id string) *Task {
	if e := w.lookup(id, true); e > 0 {
		return w.tasks[e-1]
	}
	return nil
}

// File returns the file with the given ID, or nil.
func (w *Workflow) File(id string) *File {
	if e := w.lookup(id, false); e < 0 {
		return w.files[-e-1]
	}
	return nil
}

// AddFile registers a file.
func (w *Workflow) AddFile(id string, size units.Bytes) (*File, error) {
	if id == "" {
		return nil, fmt.Errorf("workflow: empty file ID")
	}
	if size < 0 {
		return nil, fmt.Errorf("workflow: file %q has negative size %v", id, size)
	}
	if w.File(id) != nil {
		return nil, fmt.Errorf("workflow: duplicate file ID %q", id)
	}
	if len(w.files) == maxEntries {
		return nil, fmt.Errorf("workflow: more than %d files", maxEntries)
	}
	f := &File{id: id, size: size, index: w.fileBase + len(w.files)}
	w.files = append(w.files, f)
	w.insertID(-int32(len(w.files)))
	w.seen = append(w.seen, 0)
	return f, nil
}

// MustAddFile is AddFile for generator code with known-good inputs.
func (w *Workflow) MustAddFile(id string, size units.Bytes) *File {
	f, err := w.AddFile(id, size)
	if err != nil {
		panic(err)
	}
	return f
}

// AddTask registers a task and wires it to its files. Every referenced file
// must already exist, and each file may have at most one producer.
func (w *Workflow) AddTask(spec TaskSpec) (*Task, error) {
	if spec.ID == "" {
		return nil, fmt.Errorf("workflow: empty task ID")
	}
	if w.Task(spec.ID) != nil {
		return nil, fmt.Errorf("workflow: duplicate task ID %q", spec.ID)
	}
	if len(w.tasks) == maxEntries {
		return nil, fmt.Errorf("workflow: more than %d tasks", maxEntries)
	}
	if spec.Work < 0 {
		return nil, fmt.Errorf("workflow: task %q has negative work", spec.ID)
	}
	if spec.Alpha < 0 || spec.Alpha > 1 {
		return nil, fmt.Errorf("workflow: task %q has Amdahl fraction %g outside [0,1]", spec.ID, spec.Alpha)
	}
	if spec.LambdaIO < 0 || spec.LambdaIO >= 1 {
		return nil, fmt.Errorf("workflow: task %q has λ_io %g outside [0,1)", spec.ID, spec.LambdaIO)
	}
	kind := spec.Kind
	if kind == "" {
		kind = KindCompute
	}
	code := slices.Index(kinds[:], kind)
	if code < 0 {
		return nil, fmt.Errorf("workflow: task %q has unknown kind %q", spec.ID, kind)
	}
	cores := spec.Cores
	if cores == 0 {
		cores = 1
	}
	if cores < 0 || cores > maxCores {
		return nil, fmt.Errorf("workflow: task %q requests %d cores", spec.ID, cores)
	}
	if spec.Memory < 0 {
		return nil, fmt.Errorf("workflow: task %q requests negative memory", spec.ID)
	}
	t := &Task{
		id:       spec.ID,
		name:     spec.Name,
		work:     spec.Work,
		memory:   spec.Memory,
		alpha:    spec.Alpha,
		lambdaIO: spec.LambdaIO,
		index:    int32(len(w.tasks)),
		coreKind: uint32(cores) | uint32(code)<<kindShift,
	}
	if t.name == "" {
		t.name = t.id
	}
	if err := w.resolveFiles(t, spec); err != nil {
		return nil, err
	}
	// All checks passed; commit, maintaining the dependency edge lists as
	// we go. t carries the largest index so far, so appending it to another
	// task's sorted list keeps that list sorted — and because only t is
	// appended during this call, "the reverse edge's last element is
	// already t" detects a duplicate pair in O(1), keeping AddTask linear
	// even for million-wide joins.
	for _, f := range t.Inputs() {
		f.consumers = append(f.consumers, t)
		if p := f.producer; p != nil && p.lastChild() != t {
			p.edges = append(p.edges, t)
			t.addParent(p)
		}
	}
	sortByIndex(t.Parents())
	for _, f := range t.Outputs() {
		f.producer = t
		// Consumers registered before their producer: t becomes their
		// (largest-index) parent, and they become t's children.
		for _, c := range f.consumers {
			if c.lastParent() != t {
				c.addParent(t)
				t.edges = append(t.edges, c)
			}
		}
	}
	sortByIndex(t.Children())
	w.tasks = append(w.tasks, t)
	w.insertID(int32(len(w.tasks)))
	return t, nil
}

// resolveFiles looks the spec's input and output IDs up into t's file
// list, rejecting unknown, repeated and already-produced files in spec
// order. IDs name files one to one, so a repeated file is a repeated ID.
func (w *Workflow) resolveFiles(t *Task, spec TaskSpec) error {
	defer w.clearSeen(t)
	if n := len(spec.Inputs) + len(spec.Outputs); n > 0 {
		t.files = make([]*File, 0, n)
	}
	for _, id := range spec.Inputs {
		f := w.File(id)
		if f == nil {
			return fmt.Errorf("workflow: task %q reads unknown file %q", spec.ID, id)
		}
		seen := &w.seen[f.index-w.fileBase]
		if *seen&seenRead != 0 {
			return fmt.Errorf("workflow: task %q reads file %q twice", spec.ID, id)
		}
		*seen |= seenRead
		t.files = append(t.files, f)
	}
	t.nIn = int32(len(t.files))
	for _, id := range spec.Outputs {
		f := w.File(id)
		if f == nil {
			return fmt.Errorf("workflow: task %q writes unknown file %q", spec.ID, id)
		}
		seen := &w.seen[f.index-w.fileBase]
		if *seen&seenWritten != 0 {
			return fmt.Errorf("workflow: task %q writes file %q twice", spec.ID, id)
		}
		if *seen&seenRead != 0 {
			return fmt.Errorf("workflow: task %q both reads and writes file %q", spec.ID, id)
		}
		if f.producer != nil {
			return fmt.Errorf("workflow: file %q produced by both %q and %q", id, f.producer.id, spec.ID)
		}
		*seen |= seenWritten
		t.files = append(t.files, f)
	}
	return nil
}

// clearSeen zeroes the scratch-set entries of t's files, so a later task
// starts from an empty set.
func (w *Workflow) clearSeen(t *Task) {
	for _, f := range t.files {
		w.seen[f.index-w.fileBase] = 0
	}
}

// sortByIndex orders an edge list by task insertion index. Lists are
// usually built in that order already, so it sorts only when they are not.
func sortByIndex(ts []*Task) {
	byIndex := func(a, b *Task) int { return cmp.Compare(a.index, b.index) }
	if !slices.IsSortedFunc(ts, byIndex) {
		slices.SortFunc(ts, byIndex)
	}
}

// PadInt formats a non-negative i in decimal, zero-padded to width
// (at most 16) digits: fmt's %0<width>d, for generators that build their
// IDs with strconv rather than fmt.Sprintf.
func PadInt(i, width int) string {
	s := strconv.Itoa(i)
	return "0000000000000000"[:max(width-len(s), 0)] + s
}

// MustAddTask is AddTask for generator code with known-good inputs.
func (w *Workflow) MustAddTask(spec TaskSpec) *Task {
	t, err := w.AddTask(spec)
	if err != nil {
		panic(err)
	}
	return t
}

// taskHeap is a min-heap of tasks by insertion index: the ready list of
// Kahn's algorithm.
type taskHeap []*Task

func (h taskHeap) Len() int           { return len(h) }
func (h taskHeap) Less(i, j int) bool { return h[i].index < h[j].index }
func (h taskHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)        { *h = append(*h, x.(*Task)) }
func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// TopologicalOrder returns the tasks in a deterministic topological order
// (Kahn's algorithm, ties broken by insertion index), or an error if the
// graph has a cycle. The ready list is a min-heap by index, so the whole
// walk is O((V+E) log V) at any workflow width — a million-wide fork-join
// stays tractable where a sorted-insert list would degrade to O(V²).
func (w *Workflow) TopologicalOrder() ([]*Task, error) {
	indegree := make([]int, len(w.tasks))
	ready := make(taskHeap, 0, len(w.tasks)/2+1)
	for _, t := range w.tasks {
		indegree[t.index] = int(t.nPar)
		if t.nPar == 0 {
			ready = append(ready, t)
		}
	}
	heap.Init(&ready)
	order := make([]*Task, 0, len(w.tasks))
	for len(ready) > 0 {
		t := heap.Pop(&ready).(*Task)
		order = append(order, t)
		for _, c := range t.Children() {
			indegree[c.index]--
			if indegree[c.index] == 0 {
				heap.Push(&ready, c)
			}
		}
	}
	if len(order) != len(w.tasks) {
		return nil, fmt.Errorf("workflow %q: dependency cycle among %d tasks", w.name, len(w.tasks)-len(order))
	}
	return order, nil
}

// Validate checks structural invariants not enforced incrementally: the
// graph must be acyclic. (Unique IDs and single producers are enforced by
// AddFile/AddTask.) It is Kahn's algorithm without the order: a stack
// instead of TopologicalOrder's heap, and a count of the tasks it frees.
// Which tasks a Kahn pass frees does not depend on the order it takes
// them in, so the error, and its count of the tasks left on or behind a
// cycle, is TopologicalOrder's.
func (w *Workflow) Validate() error {
	indegree := make([]int32, len(w.tasks))
	ready := make([]int32, 0, len(w.tasks))
	for i, t := range w.tasks {
		indegree[i] = t.nPar
		if t.nPar == 0 {
			ready = append(ready, int32(i))
		}
	}
	freed := 0
	for len(ready) > 0 {
		t := w.tasks[ready[len(ready)-1]]
		ready = ready[:len(ready)-1]
		freed++
		for _, c := range t.Children() {
			indegree[c.index]--
			if indegree[c.index] == 0 {
				ready = append(ready, c.index)
			}
		}
	}
	if freed != len(w.tasks) {
		return fmt.Errorf("workflow %q: dependency cycle among %d tasks", w.name, len(w.tasks)-freed)
	}
	return nil
}

// Sources returns tasks with no parents, in insertion order.
func (w *Workflow) Sources() []*Task {
	var srcs []*Task
	for _, t := range w.tasks {
		if len(t.Parents()) == 0 {
			srcs = append(srcs, t)
		}
	}
	return srcs
}

// Sinks returns tasks with no children, in insertion order.
func (w *Workflow) Sinks() []*Task {
	var sinks []*Task
	for _, t := range w.tasks {
		if len(t.Children()) == 0 {
			sinks = append(sinks, t)
		}
	}
	return sinks
}

// Levels partitions tasks by depth: level 0 holds the sources, level k the
// tasks whose deepest parent is at level k-1.
func (w *Workflow) Levels() ([][]*Task, error) {
	order, err := w.TopologicalOrder()
	if err != nil {
		return nil, err
	}
	depth := make([]int, len(order))
	max := 0
	for _, t := range order {
		d := 0
		for _, p := range t.Parents() {
			if depth[p.index]+1 > d {
				d = depth[p.index] + 1
			}
		}
		depth[t.index] = d
		if d > max {
			max = d
		}
	}
	levels := make([][]*Task, max+1)
	for _, t := range order {
		levels[depth[t.index]] = append(levels[depth[t.index]], t)
	}
	return levels, nil
}

// CriticalPath returns the longest path through the DAG where each task's
// weight is dur(task), along with its total duration.
func (w *Workflow) CriticalPath(dur func(*Task) float64) ([]*Task, float64, error) {
	order, err := w.TopologicalOrder()
	if err != nil {
		return nil, 0, err
	}
	finish := make([]float64, len(order))
	prev := make([]*Task, len(order))
	var last *Task
	best := 0.0
	for _, t := range order {
		start := 0.0
		for _, p := range t.Parents() {
			if finish[p.index] > start {
				start = finish[p.index]
				prev[t.index] = p
			}
		}
		finish[t.index] = start + dur(t)
		if finish[t.index] > best {
			best = finish[t.index]
			last = t
		}
	}
	var path []*Task
	for t := last; t != nil; t = prev[t.index] {
		path = append(path, t)
	}
	// Reverse into source-to-sink order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, best, nil
}

// Stats summarizes a workflow.
type Stats struct {
	Tasks         int
	Files         int
	InputFiles    int
	InputBytes    units.Bytes
	TotalBytes    units.Bytes // data footprint: sum of all file sizes
	TotalWork     units.Flops
	TasksByName   map[string]int
	MaxParallel   int // widest level
	Depth         int // number of levels
	SourceCount   int
	SinkCount     int
	EdgeCount     int         // task-to-task dependency edges (deduplicated)
	IntermedBytes units.Bytes // bytes of files that are produced and consumed
}

// ComputeStats walks the workflow once and summarizes it.
func (w *Workflow) ComputeStats() (Stats, error) {
	levels, err := w.Levels()
	if err != nil {
		return Stats{}, err
	}
	s := Stats{
		Tasks:       len(w.tasks),
		Files:       len(w.files),
		TasksByName: map[string]int{},
		Depth:       len(levels),
		SourceCount: len(w.Sources()),
		SinkCount:   len(w.Sinks()),
	}
	for _, lv := range levels {
		if len(lv) > s.MaxParallel {
			s.MaxParallel = len(lv)
		}
	}
	for _, f := range w.files {
		s.TotalBytes += f.size
		if f.IsInput() {
			s.InputFiles++
			s.InputBytes += f.size
		} else if len(f.consumers) > 0 {
			s.IntermedBytes += f.size
		}
	}
	for _, t := range w.tasks {
		s.TotalWork += t.work
		s.TasksByName[t.name]++
		s.EdgeCount += len(t.Parents())
	}
	return s, nil
}
