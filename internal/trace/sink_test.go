package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
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

// TestReleaseFoldsSummaries: in a trace with a sink, Release drops the
// record from live state and the folded summaries still match a retaining
// trace's.
func TestReleaseFoldsSummaries(t *testing.T) {
	build := func(tr *Trace, release bool) {
		for i, id := range []string{"a1", "a2", "b1"} {
			r := tr.Task(id)
			r.Name = string(id[0])
			base := float64(i * 10)
			r.ReadyAt, r.StartedAt, r.ReadDoneAt = base, base+1, base+2
			r.ComputeDone, r.FinishedAt = base+5, base+6
			r.BytesRead, r.BytesWritten = 100, 50
			if release {
				tr.Release(id)
				if tr.Lookup(id) != nil {
					t.Fatalf("record %s still live after Release", id)
				}
			}
		}
	}
	retained, counting := New("wf", "p", Retain), New("wf", "p", nil)
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
}

// TestRetainedChunks fills a retaining trace past three storage chunks
// and checks the chunked store against a plain slice of the same events:
// Events is the emission order and idempotent, Emit after Events keeps
// appending in order, MarshalJSON and Save write the bytes the plain slice
// marshals to, and Records and CountKind are untouched by the chunking.
func TestRetainedChunks(t *testing.T) {
	tr := New("wf", "plat", Retain)
	kinds := []EventKind{TaskReady, TaskStart, TaskEnd, JobSubmit, JobStart}
	var want []Event
	var records []*TaskRecord
	emit := func(n int) {
		for i := 0; i < n; i++ {
			k := len(want)
			ev := Event{Time: float64(k) / 3, Kind: kinds[k%len(kinds)], TaskID: "t" + strconv.Itoa(k%97), Name: strconv.Itoa(k), form: formName}
			tr.Record(ev.Time, ev.Kind, ev.TaskID, Named(ev.Name))
			want = append(want, ev)
			if k%1000 == 0 {
				r := tr.Task("task" + strconv.Itoa(k))
				r.Name, r.StartedAt, r.FinishedAt = "n", ev.Time, ev.Time+1
				records = append(records, r)
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
	if !slices.Equal(tr.Records(), records) {
		t.Fatal("Records() differs from the created task records")
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

	plain, err := json.Marshal(jsonTrace{Workflow: "wf", Platform: "plat", Makespan: tr.Makespan(), Tasks: records, Events: want})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := tr.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, plain) {
		t.Fatal("MarshalJSON bytes differ from marshalling a plain event slice")
	}
	var pretty map[string]any
	if err := json.Unmarshal(plain, &pretty); err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(pretty, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, append(indented, '\n')) {
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
// event and no task record past the task's release, so Events and Records
// are nil, and recording an event allocates nothing (no event chunk).
func TestNilSinkCounts(t *testing.T) {
	tr := New("wf", "plat", nil)
	allocs := testing.AllocsPerRun(3*chunkEvents, func() {
		tr.Record(1, TaskStart, "t", Named("f"))
	})
	if allocs != 0 {
		t.Errorf("Record on a counting trace allocated %v times per event, want 0", allocs)
	}
	r := tr.Task("t")
	r.Name, r.StartedAt, r.FinishedAt = "n", 1, 2
	tr.Release("t")
	if ev, recs := tr.Events(), tr.Records(); ev != nil || recs != nil {
		t.Errorf("counting trace returned %d events and %d records, want nil", len(ev), len(recs))
	}
	if tr.mem != nil {
		t.Error("counting trace built a retaining store")
	}
	if n := tr.CountKind(TaskStart); n != 3*chunkEvents+1 {
		t.Errorf("CountKind(task-start) = %d, want %d", n, 3*chunkEvents+1)
	}
	if s := tr.Summarize(); len(s) != 1 || s[0].Count != 1 || s[0].MeanExec != 1 {
		t.Errorf("Summarize = %+v, want one record of n with exec 1", s)
	}
}
