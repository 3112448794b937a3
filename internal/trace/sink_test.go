package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestCountKindMatchesScan pins CountKind's incremental counters against a
// full scan of the retained event slice — the O(1) fast path must stay in
// lockstep with the ground truth.
func TestCountKindMatchesScan(t *testing.T) {
	tr := New("wf", "plat", Retain)
	kinds := []EventKind{TaskReady, TaskStart, TaskEnd, TaskFail, TaskRetry, Fallback, AdaptSpill}
	for i := 0; i < 500; i++ {
		tr.Record(float64(i), kinds[i%len(kinds)], "t", Event{})
	}
	scan := map[EventKind]int{}
	for _, ev := range tr.Events() {
		scan[ev.Kind]++
	}
	for _, k := range append(kinds, NodeFail, CkptCommit) { // include never-recorded kinds
		if got := tr.CountKind(k); got != scan[k] {
			t.Errorf("CountKind(%s) = %d, full scan counts %d", k, got, scan[k])
		}
	}
}

// TestCountKindAllModes: the counters advance identically whether the sink
// retains, streams, or drops the events.
func TestCountKindAllModes(t *testing.T) {
	var sb strings.Builder
	jsonl := NewJSONLSink(&sb)
	traces := []*Trace{
		New("wf", "plat", Retain),
		New("wf", "plat", jsonl),
		New("wf", "plat", nil),
	}
	for _, tr := range traces {
		tr.Record(1, TaskStart, "a", Event{})
		tr.Record(2, TaskStart, "b", Event{})
		tr.Record(3, TaskEnd, "a", Event{})
	}
	for i, tr := range traces {
		if tr.CountKind(TaskStart) != 2 || tr.CountKind(TaskEnd) != 1 {
			t.Errorf("trace %d: counts start=%d end=%d, want 2/1",
				i, tr.CountKind(TaskStart), tr.CountKind(TaskEnd))
		}
		if tr.Makespan() != 3 {
			t.Errorf("trace %d: makespan %v, want 3", i, tr.Makespan())
		}
	}
	if n := len(traces[0].Events()); n != 3 {
		t.Errorf("retaining trace holds %d events, want 3", n)
	}
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(sb.String(), "\n"); n != 3 {
		t.Errorf("JSONL sink got %d lines, want 3", n)
	}
	if ev := traces[2].Events(); ev != nil {
		t.Errorf("counting trace retained %d events", len(ev))
	}
}

// TestJSONLSinkRoundTrip: every emitted line parses back to the event, with
// the same field schema as the retained trace's events array.
func TestJSONLSinkRoundTrip(t *testing.T) {
	var sb strings.Builder
	s := NewJSONLSink(&sb)
	want := []Event{
		{Time: 0, Kind: TaskReady, TaskID: "t1"},
		{Time: 1.5, Kind: TaskStart, TaskID: "t1", Name: "node0", form: formName},
		{Time: 2.25, Kind: TaskEnd, TaskID: "t1"},
	}
	for _, ev := range want {
		s.Emit(ev)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("%d lines, want %d", len(lines), len(want))
	}
	type line struct {
		Time   float64 `json:"time"`
		Kind   string  `json:"kind"`
		TaskID string  `json:"task"`
		Detail string  `json:"detail"`
	}
	for i, raw := range lines {
		var got line
		if err := json.Unmarshal([]byte(raw), &got); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		w := want[i]
		if got != (line{w.Time, w.Kind.String(), w.TaskID, w.Name}) {
			t.Errorf("line %d: %+v, want %+v", i, got, w)
		}
	}
}

// TestCSVSinkRoundTrip: header plus one row per event, parseable by a
// standard CSV reader.
func TestCSVSinkRoundTrip(t *testing.T) {
	var sb strings.Builder
	s := NewCSVSink(&sb)
	s.Emit(Event{Time: 0.5, Kind: ReadStart, TaskID: "t1", Name: "f1", Place: "bb", form: formAt})
	s.Emit(Event{Time: 1, Kind: ReadEnd, TaskID: "t1"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"time", "kind", "task", "detail"},
		{"0.5", "read-start", "t1", "f1@bb"},
		{"1", "read-end", "t1", ""},
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if rows[i][j] != want[i][j] {
				t.Errorf("row %d col %d: %q, want %q", i, j, rows[i][j], want[i][j])
			}
		}
	}
}

// errWriter fails after n successful writes.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

// TestSinkErrorLatching: a write error surfaces from Close, later Emits are
// no-ops, and the hot path never panics or blocks.
func TestSinkErrorLatching(t *testing.T) {
	s := NewJSONLSink(&errWriter{n: 0})
	for i := 0; i < 3000; i++ { // enough to overflow the 64 KiB buffer
		s.Emit(Event{Time: float64(i), Kind: TaskStart, TaskID: "t"})
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close() = nil after failed writes")
	}
	c := NewCSVSink(&errWriter{n: 0})
	for i := 0; i < 3000; i++ {
		c.Emit(Event{Time: float64(i), Kind: TaskStart, TaskID: "t"})
	}
	if err := c.Close(); err == nil {
		t.Fatal("CSV Close() = nil after failed writes")
	}
}

// TestNonRetainedMarshalRefused: the JSON schema promises full events and
// records, which only a retaining trace has.
func TestNonRetainedMarshalRefused(t *testing.T) {
	if _, err := New("wf", "plat", nil).MarshalJSON(); err == nil {
		t.Fatal("counting trace marshaled without error")
	}
	var sb strings.Builder
	if _, err := New("wf", "plat", NewJSONLSink(&sb)).MarshalJSON(); err == nil {
		t.Fatal("streaming trace marshaled without error")
	}
}

// TestReleaseFoldsSummaries: a releasing trace folds each record into
// the summaries at its task's end and frees it, and the folded summaries
// match a retaining trace's.
func TestReleaseFoldsSummaries(t *testing.T) {
	wf := testWorkflow(t, "a1", "a", "a2", "a", "b1", "b")
	build := func(tr *Trace, release bool) {
		for i, wt := range wf.Tasks() {
			base := float64(i * 10)
			run(tr, wt, execution{base, base + 1, base + 2, base + 5, base + 6, "n0", 1, 1, 100, 50})
			if release && (tr.Task(wt) != nil || tr.slot[wt.Index()] != 0) {
				t.Fatalf("record %s still live after its task's end", wt.ID())
			}
		}
	}
	retained, counting := ForWorkflow(wf, "p", Retain), ForWorkflow(wf, "p", nil)
	build(retained, false)
	build(counting, true)
	a, b := retained.Summarize(), counting.Summarize()
	if len(a) != len(b) {
		t.Fatalf("summary lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("summary %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if n := len(counting.recs); n != 1 {
		t.Errorf("releasing trace allocated %d records for tasks run one at a time, want 1", n)
	}
}

// TestLiveRecordsBounded drives a releasing trace through a seeded random
// interleaving of task lifecycles, with failures, retries and lineage
// re-executions, and checks after every event that its live records never
// outnumber the tasks between a ready and an end, and that it never holds
// more records than the most such tasks at once.
func TestLiveRecordsBounded(t *testing.T) {
	const tasks = 40
	ids := make([]string, 0, 2*tasks)
	for i := 0; i < tasks; i++ {
		ids = append(ids, "t"+strconv.Itoa(i), "n"+strconv.Itoa(i%3))
	}
	wf := testWorkflow(t, ids...)
	tr := ForWorkflow(wf, "p", nil)
	rng := rand.New(rand.NewSource(1))
	const (
		idle = iota
		ready
		running
	)
	state, starts := make([]int, tasks), make([]int, tasks)
	open, peak, now := 0, 0, 0.0
	for step := 0; step < 20000; step++ {
		wt := wf.Tasks()[rng.Intn(tasks)]
		i := wt.Index()
		now++
		switch state[i] {
		case idle: // first execution, or a re-execution of a finished task
			if starts[i] > 0 {
				record(tr, now, TaskRetry, wt, Named("re-execution: output replica lost"))
			}
			record(tr, now, TaskReady, wt, Event{})
			state[i] = ready
			open++
		case ready:
			starts[i]++
			record(tr, now, TaskStart, wt, Started("n0", 1, starts[i]))
			state[i] = running
		case running:
			switch rng.Intn(4) {
			case 0:
				record(tr, now, TaskFail, wt, Named("injected crash"))
				record(tr, now, TaskRetry, wt, Attempt(starts[i]+1))
				record(tr, now, TaskReady, wt, Event{})
				state[i] = ready
			case 1:
				record(tr, now, ReadEnd, wt, Named("in").Moved(1))
				record(tr, now, ComputeStart, wt, Event{})
			case 2:
				record(tr, now, ComputeEnd, wt, Event{})
				record(tr, now, WriteEnd, wt, Named("out").Moved(1))
			default:
				record(tr, now, TaskEnd, wt, Event{})
				state[i] = idle
				open--
			}
		}
		peak = max(peak, open)
		if live := len(tr.recs) - len(tr.free); live > open {
			t.Fatalf("step %d: %d live records, %d tasks between ready and end", step, live, open)
		}
		if len(tr.recs) > peak {
			t.Fatalf("step %d: %d records held, at most %d tasks were ever open at once", step, len(tr.recs), peak)
		}
	}
	if ends := tr.CountKind(TaskEnd); ends < tasks {
		t.Fatalf("only %d task ends; the interleaving exercised too little", ends)
	}
}

// TestRetainedChunks fills a retaining trace past three storage chunks
// and checks the chunked store against a plain slice of the same events:
// Events is the emission order and idempotent, Emit after Events keeps
// appending in order, MarshalJSON and Save write the bytes the plain slice
// marshals to, and Records and CountKind are untouched by the chunking.
func TestRetainedChunks(t *testing.T) {
	ids := make([]string, 0, 2*97)
	for i := 0; i < 97; i++ {
		ids = append(ids, "t"+strconv.Itoa(i), "n")
	}
	wf := testWorkflow(t, ids...)
	tr := ForWorkflow(wf, "plat", Retain)
	kinds := []EventKind{TaskReady, TaskStart, TaskEnd, JobSubmit, JobStart}
	var want []Event
	// records is the task records the events build, in first-touch order.
	var records []*TaskRecord
	byID := map[string]*TaskRecord{}
	emit := func(n int) {
		for i := 0; i < n; i++ {
			k := len(want)
			wt := wf.Tasks()[k%97]
			d := Named(strconv.Itoa(k))
			if kinds[k%len(kinds)] == TaskStart {
				d = Started(strconv.Itoa(k), 2, 1)
			}
			d.M = int32(wt.Index())
			ev := d
			ev.Time, ev.Kind, ev.TaskID = float64(k)/3, kinds[k%len(kinds)], wt.ID()
			tr.Record(ev.Time, ev.Kind, ev.TaskID, d)
			want = append(want, ev)
			if ev.Kind > TaskEnd {
				continue
			}
			r := byID[ev.TaskID]
			if r == nil {
				r = &TaskRecord{TaskID: ev.TaskID}
				byID[ev.TaskID] = r
				records = append(records, r)
			}
			switch ev.Kind {
			case TaskReady:
				r.ReadyAt = ev.Time
			case TaskStart:
				r.Name, r.Node, r.Cores, r.StartedAt = "n", ev.Name, 2, ev.Time
			case TaskEnd:
				r.FinishedAt = ev.Time
			}
		}
	}
	emit(3*chunkEvents + 123)
	if n := len(tr.mem.chunks); n <= 3 {
		t.Fatalf("%d events filled %d chunks, want more than 3", len(want), n)
	}
	got := tr.Events()
	if !slices.Equal(got, want) {
		t.Fatal("Events() differs from the emission order")
	}
	if again := tr.Events(); !slices.Equal(again, want) || &again[0] != &got[0] {
		t.Fatal("a second Events() differs from the first or flattened again")
	}

	emit(2*chunkEvents + 7)
	if !slices.Equal(tr.Events(), want) {
		t.Fatal("Events() after more Emits differs from the emission order")
	}
	if !slices.Equal(got, want[:len(got)]) {
		t.Fatal("later Emits changed an earlier Events() result")
	}
	if !slices.EqualFunc(tr.Records(), records, func(a, b *TaskRecord) bool { return *a == *b }) {
		t.Fatal("Records() differs from the records the events build")
	}
	for _, k := range append(kinds, TaskFail) {
		n := 0
		for _, ev := range want {
			if ev.Kind == k {
				n++
			}
		}
		if tr.CountKind(k) != n {
			t.Errorf("CountKind(%s) = %d, want %d", k, tr.CountKind(k), n)
		}
	}

	doc := threePass(t, jsonTrace{"wf", "plat", tr.Makespan(), records, schemaEvents(want)})
	raw, err := tr.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, doc) {
		t.Fatal("MarshalJSON bytes differ from marshalling a plain event slice")
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, append(doc, '\n')) {
		t.Fatal("Save bytes differ from saving a plain event slice")
	}
}

// TestRetainedChunkBoundaries checks the retained events against a plain
// slice at every chunk boundary: empty, one event, one short of a chunk,
// a full chunk, one past it and several chunks, each followed by one more
// Emit after Events has flattened.
func TestRetainedChunkBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, chunkEvents - 1, chunkEvents, chunkEvents + 1, 3*chunkEvents + 7} {
		tr := New("wf", "plat", Retain)
		var want []Event
		emit := func() {
			k := len(want)
			ev := Event{Time: float64(k), Kind: TaskStart, TaskID: "t" + strconv.Itoa(k)}
			tr.Record(ev.Time, ev.Kind, ev.TaskID, Event{})
			want = append(want, ev)
		}
		for i := 0; i < n; i++ {
			emit()
		}
		got := tr.Events()
		if !slices.Equal(got, want) {
			t.Fatalf("%d events: Events() differs from the emission order", n)
		}
		before := slices.Clone(got)
		emit()
		if !slices.Equal(tr.Events(), want) {
			t.Fatalf("%d events: Events() after one more Emit differs from the emission order", n)
		}
		if !slices.Equal(got, before) {
			t.Fatalf("%d events: an Emit after Events() changed its result", n)
		}
		for _, c := range tr.mem.chunks {
			if cap(c) != chunkEvents && len(c) != cap(c) {
				t.Fatalf("%d events: a chunk of capacity %d holding %d events", n, cap(c), len(c))
			}
		}
	}
}

// TestShortTraceAllocatesOneChunk: a trace shorter than one chunk costs
// exactly one allocation, its chunk, and that chunk is never grown.
func TestShortTraceAllocatesOneChunk(t *testing.T) {
	const runs = 20
	sinks := make([]memory, runs+1)
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		m := &sinks[next]
		next++
		for i := 0; i < chunkEvents-1; i++ {
			m.Emit(Event{Time: float64(i), Kind: TaskStart})
		}
	})
	if allocs != 1 {
		t.Fatalf("%d events allocated %v times, want 1 (one chunk)", chunkEvents-1, allocs)
	}
	if c := sinks[0].chunks; len(c) != 1 || cap(c[0]) != chunkEvents {
		t.Fatalf("%d events went into %d chunks, the first of capacity %d", chunkEvents-1, len(c), cap(c[0]))
	}
}

// TestNilSinkCounts: a trace built without a sink counts. It keeps no
// event and no task record past the task's end, so Events and Records
// are nil, and recording an event allocates nothing: no event chunk, and
// no task record once a freed one is there to reuse.
func TestNilSinkCounts(t *testing.T) {
	wf := testWorkflow(t, "t", "n")
	wt := wf.Task("t")
	tr := ForWorkflow(wf, "plat", nil)
	allocs := testing.AllocsPerRun(3*chunkEvents, func() {
		tr.Record(1, JobStart, "j", Named("f"))
	})
	if allocs != 0 {
		t.Errorf("Record on a counting trace allocated %v times per event, want 0", allocs)
	}
	run(tr, wt, execution{0, 1, 1, 1, 2, "n0", 1, 1, 0, 0})
	const runs = 100
	allocs = testing.AllocsPerRun(runs, func() {
		run(tr, wt, execution{0, 1, 1, 1, 2, "n0", 1, 1, 0, 0})
	})
	if allocs != 0 {
		t.Errorf("a task's events on a counting trace allocated %v times per execution, want 0", allocs)
	}
	if ev, recs := tr.Events(), tr.Records(); ev != nil || recs != nil {
		t.Errorf("counting trace returned %d events and %d records, want nil", len(ev), len(recs))
	}
	if tr.mem != nil {
		t.Error("counting trace built a retaining store")
	}
	if n := tr.CountKind(JobStart); n != 3*chunkEvents+1 {
		t.Errorf("CountKind(job-start) = %d, want %d", n, 3*chunkEvents+1)
	}
	if s := tr.Summarize(); len(s) != 1 || s[0].Count != runs+2 || s[0].MeanExec != 1 {
		t.Errorf("Summarize = %+v, want %d executions of n with exec 1", s, runs+2)
	}
}

// TestTee: a tee sends every event to both sinks and skips a nil one,
// and the trace retains the events it also forwards with Retain anywhere
// in a chain of Tees, each event once however often Retain appears.
func TestTee(t *testing.T) {
	var b collect
	if Tee(nil, &b) != Sink(&b) || Tee(&b, nil) != Sink(&b) {
		t.Error("Tee with a nil sink is not the other sink")
	}
	for name, chain := range map[string]func(Sink) Sink{
		"first":  func(c Sink) Sink { return Tee(Retain, c) },
		"second": func(c Sink) Sink { return Tee(c, Retain) },
		"nested": func(c Sink) Sink { return Tee(Tee(c, Retain), NewCSVSink(io.Discard)) },
		"twice":  func(c Sink) Sink { return Tee(Retain, Tee(c, Retain)) },
	} {
		var b collect
		tr := New("wf", "p", chain(&b))
		tr.Record(1, TaskStart, "a", Named("n0"))
		tr.Record(2, TaskEnd, "a", Event{X: 0.5})
		if got := tr.Events(); len(got) != 2 || !slices.Equal(got, b.events) {
			t.Errorf("%s: retained %v, forwarded %v: want the same two events", name, got, b.events)
		}
	}
}

// collect is a sink that keeps what it is sent.
type collect struct{ events []Event }

func (c *collect) Emit(ev Event) { c.events = append(c.events, ev) }
func (c *collect) Close() error  { return nil }
