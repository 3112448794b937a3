package trace

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// TestCountKindMatchesScan pins CountKind's incremental counters against a
// full scan of the retained event slice — the O(1) fast path must stay in
// lockstep with the ground truth.
func TestCountKindMatchesScan(t *testing.T) {
	tr := New("wf", "plat", nil)
	kinds := []EventKind{TaskReady, TaskStart, TaskEnd, TaskFail, TaskRetry, Fallback, AdaptSpill}
	for i := 0; i < 500; i++ {
		tr.Record(float64(i), kinds[i%len(kinds)], "t", "")
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
		New("wf", "plat", nil),
		New("wf", "plat", jsonl),
		New("wf", "plat", Discard),
	}
	for _, tr := range traces {
		tr.Record(1, TaskStart, "a", "")
		tr.Record(2, TaskStart, "b", "")
		tr.Record(3, TaskEnd, "a", "")
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
		t.Errorf("Discard trace retained %d events", len(ev))
	}
}

// TestJSONLSinkRoundTrip: every emitted line parses back to the event, with
// the same field schema as the retained trace's events array.
func TestJSONLSinkRoundTrip(t *testing.T) {
	var sb strings.Builder
	s := NewJSONLSink(&sb)
	want := []Event{
		{Time: 0, Kind: TaskReady, TaskID: "t1"},
		{Time: 1.5, Kind: TaskStart, TaskID: "t1", Detail: "node0"},
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
	for i, line := range lines {
		var got Event
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if got != want[i] {
			t.Errorf("line %d: %+v, want %+v", i, got, want[i])
		}
	}
}

// TestCSVSinkRoundTrip: header plus one row per event, parseable by a
// standard CSV reader.
func TestCSVSinkRoundTrip(t *testing.T) {
	var sb strings.Builder
	s := NewCSVSink(&sb)
	s.Emit(Event{Time: 0.5, Kind: ReadStart, TaskID: "t1", Detail: "f1@bb"})
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
	if _, err := New("wf", "plat", Discard).MarshalJSON(); err == nil {
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
	retained, counting := New("wf", "p", nil), New("wf", "p", Discard)
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
