package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

// testWorkflow returns a workflow of compute tasks, given as ID and name
// pairs, in index order.
func testWorkflow(t testing.TB, idNames ...string) *workflow.Workflow {
	t.Helper()
	wf := workflow.New("wf")
	for i := 0; i < len(idNames); i += 2 {
		if _, err := wf.AddTask(workflow.TaskSpec{ID: idNames[i], Name: idNames[i+1]}); err != nil {
			t.Fatal(err)
		}
	}
	return wf
}

// record records an event of task wt, carrying its index in M as the
// engine does.
func record(tr *Trace, time float64, kind EventKind, wt *workflow.Task, d Event) {
	d.M = int32(wt.Index())
	tr.Record(time, kind, wt.ID(), d)
}

// execution is one run of a compute task: its phase boundaries, the node
// and cores it ran with, its attempt number and the bytes it moved.
type execution struct {
	ready, start, readDone, computeDone, end float64
	node                                     string
	cores, attempt                           int
	read, written                            units.Bytes
}

// run records the events the engine records for one execution of a
// compute task: ready, start, a read, compute, a write and end.
func run(tr *Trace, wt *workflow.Task, x execution) {
	record(tr, x.ready, TaskReady, wt, Event{})
	record(tr, x.start, TaskStart, wt, Started(x.node, x.cores, max(x.attempt, 1)))
	record(tr, x.start, ReadStart, wt, At("in", "pfs"))
	record(tr, x.readDone, ReadEnd, wt, Named("in").Moved(x.read))
	record(tr, x.readDone, ComputeStart, wt, Event{})
	record(tr, x.computeDone, ComputeEnd, wt, Event{})
	record(tr, x.computeDone, WriteStart, wt, At("out", "pfs"))
	record(tr, x.end, WriteEnd, wt, Named("out").Moved(x.written))
	record(tr, x.end, TaskEnd, wt, Event{})
}

// buildTrace records three executions, two of "resample" and one of
// "combine", on a retaining trace.
func buildTrace(t testing.TB) (*Trace, *workflow.Workflow) {
	wf := testWorkflow(t, "a", "resample", "b", "resample", "c", "combine")
	tr := ForWorkflow(wf, "plat", Retain)
	run(tr, wf.Task("a"), execution{0, 1, 3, 8, 10, "n0", 4, 1, 100 * units.MB, 50 * units.MB})
	run(tr, wf.Task("b"), execution{0, 2, 4, 6, 12, "n0", 1, 1, 0, 0})
	run(tr, wf.Task("c"), execution{10, 12, 13, 14, 15, "n1", 1, 1, 0, 0})
	return tr, wf
}

func TestTaskRecordPhases(t *testing.T) {
	tr, wf := buildTrace(t)
	a := tr.Task(wf.Task("a"))
	want := TaskRecord{TaskID: "a", Name: "resample", Node: "n0", Cores: 4,
		ReadyAt: 0, StartedAt: 1, ReadDoneAt: 3, ComputeDone: 8, FinishedAt: 10,
		BytesRead: 100 * units.MB, BytesWritten: 50 * units.MB}
	if *a != want {
		t.Fatalf("record = %+v, want %+v", *a, want)
	}
	if a.ExecTime() != 9 {
		t.Errorf("ExecTime = %v, want 9", a.ExecTime())
	}
	if a.IOTime() != 4 { // (3-1) + (10-8)
		t.Errorf("IOTime = %v, want 4", a.IOTime())
	}
	if a.ComputeTime() != 5 {
		t.Errorf("ComputeTime = %v, want 5", a.ComputeTime())
	}
	if a.WaitTime() != 1 {
		t.Errorf("WaitTime = %v, want 1", a.WaitTime())
	}
}

// TestStageTaskRecord: a stage task's end closes its read and compute
// phases, a stage-end adds the bytes it carries, and a relocation's
// stage-end, which carries none, adds nothing.
func TestStageTaskRecord(t *testing.T) {
	wf := workflow.New("wf")
	wf.MustAddFile("f", 10)
	st := wf.MustAddTask(workflow.TaskSpec{ID: "stage_in", Name: "stage_in", Kind: workflow.KindStageIn, Outputs: []string{"f"}})
	tr := ForWorkflow(wf, "plat", Retain)
	record(tr, 0, TaskReady, st, Event{})
	record(tr, 1, TaskStart, st, Started("n0", 1, 1))
	record(tr, 1, StageStart, st, To("f", "bb"))
	record(tr, 2, StageEnd, st, Named("f").Moved(10))
	record(tr, 2, StageStart, st, CopyToPFS("f", "bb"))
	record(tr, 3, StageEnd, st, At("f", "pfs"))
	record(tr, 4, TaskEnd, st, Event{})
	want := TaskRecord{TaskID: "stage_in", Name: "stage_in", Node: "n0", Cores: 1,
		StartedAt: 1, ReadDoneAt: 4, ComputeDone: 4, FinishedAt: 4, BytesWritten: 10}
	if got := tr.Task(st); *got != want {
		t.Errorf("record = %+v, want %+v", *got, want)
	}
}

func TestMakespanTracksLastEvent(t *testing.T) {
	tr, _ := buildTrace(t)
	if tr.Makespan() != 15 {
		t.Errorf("Makespan = %v, want 15", tr.Makespan())
	}
	tr.Record(20, TaskRetry, "late", Event{})
	if tr.Makespan() != 20 {
		t.Errorf("Makespan = %v after late event, want 20", tr.Makespan())
	}
}

// TestTaskIdempotent: every event of a task updates the one record, and
// Task returns it. Across a lineage re-execution a retaining trace keeps
// that record (its bytes add up, Retries counts every start), while a
// releasing trace starts a fresh one.
func TestTaskIdempotent(t *testing.T) {
	wf := testWorkflow(t, "x", "n")
	x := wf.Task("x")
	retained, counting := ForWorkflow(wf, "p", Retain), ForWorkflow(wf, "p", nil)
	for _, tr := range []*Trace{retained, counting} {
		run(tr, x, execution{0, 1, 2, 3, 4, "n0", 1, 1, 5, 7})
		run(tr, x, execution{5, 6, 7, 8, 9, "n1", 2, 2, 5, 7})
	}
	if n := len(retained.Records()); n != 1 {
		t.Fatalf("retaining trace holds %d records, want 1", n)
	}
	r := retained.Task(x)
	if r != retained.Records()[0] || r != retained.Task(x) {
		t.Error("Task does not return the one record")
	}
	if r.StartedAt != 6 || r.Node != "n1" || r.Cores != 2 || r.Retries != 1 || r.BytesRead != 10 || r.BytesWritten != 14 {
		t.Errorf("re-executed record = %+v, want the second run's phases and both runs' bytes", *r)
	}
	if counting.Task(x) != nil {
		t.Error("counting trace kept a record past the task's end")
	}
	s := counting.Summarize()
	if len(s) != 1 || s[0].Count != 2 || s[0].BytesRead != 10 || s[0].BytesWritten != 14 {
		t.Errorf("counting summaries = %+v, want two executions of 5 read and 7 written bytes", s)
	}
}

func TestSummarize(t *testing.T) {
	tr, _ := buildTrace(t)
	sums := tr.Summarize()
	if len(sums) != 2 {
		t.Fatalf("got %d summaries, want 2", len(sums))
	}
	// Sorted by name: combine before resample.
	if sums[0].Name != "combine" || sums[1].Name != "resample" {
		t.Fatalf("summary order wrong: %v, %v", sums[0].Name, sums[1].Name)
	}
	res := sums[1]
	if res.Count != 2 {
		t.Errorf("resample count = %d, want 2", res.Count)
	}
	if math.Abs(res.MeanExec-9.5) > 1e-12 { // (9 + 10) / 2
		t.Errorf("resample MeanExec = %v, want 9.5", res.MeanExec)
	}
	if res.MaxExec != 10 {
		t.Errorf("resample MaxExec = %v, want 10", res.MaxExec)
	}
	if res.BytesRead != 100*units.MB {
		t.Errorf("resample BytesRead = %v", res.BytesRead)
	}
}

// TestSummarizeFoldOrders pins the order each trace folds records in. The
// values 1e16, 1 and 1 sum to 1e16 in that order but to 1e16+2 in the
// reverse one, so a mean's bits tell the orders apart. A retaining trace
// folds in first-touch order, a releasing one in end order, and the live
// records of a releasing trace in task-ID order.
func TestSummarizeFoldOrders(t *testing.T) {
	wf := testWorkflow(t, "c", "n", "b", "n", "a", "n")
	span := map[string]float64{"a": 1e16, "b": 1, "c": 1}
	sum := func(xs ...float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s
	}
	inOrder, reversed := sum(1e16, 1, 1)/3, sum(1, 1, 1e16)/3
	if inOrder == reversed {
		t.Fatal("the two orders sum alike; the test cannot tell them apart")
	}
	// First touch c, b, a; ends a, b, c.
	retained, counting := ForWorkflow(wf, "p", Retain), ForWorkflow(wf, "p", nil)
	for _, tr := range []*Trace{retained, counting} {
		for _, id := range []string{"c", "b", "a"} {
			record(tr, 0, TaskReady, wf.Task(id), Event{})
		}
		for _, id := range []string{"a", "b", "c"} {
			run(tr, wf.Task(id), execution{0, 0, 0, 0, span[id], "n0", 1, 1, 0, 0})
		}
	}
	if got := retained.Summarize()[0].MeanExec; got != reversed {
		t.Errorf("retaining mean exec = %v, want the first-touch order's %v", got, reversed)
	}
	if got := counting.Summarize()[0].MeanExec; got != inOrder {
		t.Errorf("releasing mean exec = %v, want the end order's %v", got, inOrder)
	}
	// Touched c, b, a and none ended: the waits fold a, b, c.
	live := ForWorkflow(wf, "p", nil)
	for _, id := range []string{"c", "b", "a"} {
		record(live, 0, TaskReady, wf.Task(id), Event{})
		record(live, span[id], TaskStart, wf.Task(id), Started("n0", 1, 1))
	}
	if got := live.Summarize()[0].MeanWait; got != inOrder {
		t.Errorf("live mean wait = %v, want the task-ID order's %v", got, inOrder)
	}
}

func TestJSONExport(t *testing.T) {
	tr, _ := buildTrace(t)
	raw, err := tr.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Workflow string  `json:"workflow"`
		Platform string  `json:"platform"`
		Makespan float64 `json:"makespan"`
		Tasks    []struct {
			Task string `json:"task"`
		} `json:"tasks"`
		Events []struct {
			Kind string `json:"kind"`
		} `json:"events"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if decoded.Workflow != "wf" || decoded.Platform != "plat" || decoded.Makespan != 15 {
		t.Errorf("header wrong: %+v", decoded)
	}
	if len(decoded.Tasks) != 3 || len(decoded.Events) != 27 {
		t.Errorf("tasks/events = %d/%d, want 3/27", len(decoded.Tasks), len(decoded.Events))
	}
}

func TestSave(t *testing.T) {
	tr, _ := buildTrace(t)
	path := t.TempDir() + "/trace.json"
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("saved trace is not valid JSON: %v", err)
	}
	if m["makespan"].(float64) != 15 {
		t.Error("saved makespan wrong")
	}
}

// jsonEvent and jsonTrace are the trace's output schema as encoding/json
// reflects over it: the independent oracle of appendEvent, MarshalJSON
// and Save.
type jsonEvent struct {
	Time   float64 `json:"time"`
	Kind   string  `json:"kind"`
	TaskID string  `json:"task"`
	Detail string  `json:"detail,omitempty"`
}

type jsonTrace struct {
	Workflow string        `json:"workflow"`
	Platform string        `json:"platform"`
	Makespan float64       `json:"makespan"`
	Tasks    []*TaskRecord `json:"tasks"`
	Events   []jsonEvent   `json:"events"`
}

// schemaEvent is ev in the output schema.
func schemaEvent(ev Event) jsonEvent {
	return jsonEvent{ev.Time, ev.Kind.String(), ev.TaskID, string(appendDetail(nil, &ev))}
}

// schemaEvents is events in the output schema, nil when events is.
func schemaEvents(events []Event) []jsonEvent {
	if events == nil {
		return nil
	}
	out := make([]jsonEvent, len(events))
	for i, ev := range events {
		out[i] = schemaEvent(ev)
	}
	return out
}

// threePass is the document MarshalJSON writes for doc, computed as it
// was once written: encoding/json over the output schema, decoded into
// generic values and encoded again, indented.
func threePass(t testing.TB, doc jsonTrace) []byte {
	t.Helper()
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var pretty map[string]any
	if err := json.Unmarshal(raw, &pretty); err != nil {
		t.Fatal(err)
	}
	buf, err := json.MarshalIndent(pretty, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// threePassSave is the form Save writes of tr: threePass over its
// retained events and records, and a newline. It is Save's oracle.
func threePassSave(t testing.TB, tr *Trace) []byte {
	t.Helper()
	doc := jsonTrace{tr.WorkflowName, tr.PlatformName, tr.Makespan(), tr.Records(), schemaEvents(tr.Events())}
	return append(threePass(t, doc), '\n')
}

// TestSaveMatchesThreePass: Save writes the oracle's bytes on seeded
// retained traces whose workflow, platform, task and detail strings need
// escaping (HTML characters, quotes, control bytes, U+2028, invalid
// UTF-8), whose numbers span encoding/json's float forms, with and
// without details and retries, and on the empty trace.
func TestSaveMatchesThreePass(t *testing.T) {
	strs := []string{"plain", "<tag>&amp;", `q"uo\te`, "ctl\x01\x1f\t\n\r\b\f", "sep\u2028\u2029",
		"bad\xff\xfeutf8\xc3", "é ü 漢", "\ufffd", ""}
	nums := []float64{0, math.Copysign(0, -1), 1, 0.1, 2.5e-7, 1e-6, 123456.789, 1e20, 1e21, 3.7e300, -42.125}
	dir := t.TempDir()
	check := func(name string, tr *Trace) {
		t.Helper()
		path := filepath.Join(dir, name+".json")
		if err := tr.Save(path); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := threePassSave(t, tr); !bytes.Equal(got, want) {
			t.Fatalf("%s: Save wrote\n%s\nthe three-pass form is\n%s", name, got, want)
		}
	}
	check("empty", New("w", "p", Retain))
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		str := func() string { return strs[rng.Intn(len(strs))] }
		num := func() float64 { return nums[rng.Intn(len(nums))] }
		wf := workflow.New(str())
		for i := 0; i < 1+rng.Intn(6); i++ {
			wf.MustAddTask(workflow.TaskSpec{ID: str() + strconv.Itoa(i), Name: str()})
		}
		tr := ForWorkflow(wf, str(), Retain)
		for i := 0; i < 40; i++ {
			var d Event
			switch rng.Intn(8) {
			case 0:
				d = Named(str())
			case 1:
				d = At(str(), str())
			case 2:
				d = Progress(str(), str(), num())
			case 3:
				d = Degrade(str(), num(), num())
			case 4:
				d = Submit(rng.Intn(100), num(), num())
			case 5:
				d = Attempt(rng.Intn(5))
			case 6:
				d = Started(str(), 1+rng.Intn(64), 1+rng.Intn(3))
			}
			kind := EventKind(rng.Intn(int(numKinds)))
			if kind == TaskStart {
				d = Started(str(), 1+rng.Intn(64), 1+rng.Intn(3))
			}
			if rng.Intn(2) == 0 {
				d = d.Moved(units.Bytes(num()))
			}
			wt := wf.Tasks()[rng.Intn(len(wf.Tasks()))]
			record(tr, num(), kind, wt, d)
		}
		check(fmt.Sprintf("seed%d", seed), tr)
	}
}

// closings is an AttemptSink that keeps what the record held at each
// closing attempt.
type closings []string

func (c *closings) Emit(Event)   {}
func (c *closings) Close() error { return nil }
func (c *closings) AttemptClosed(ev Event, r *TaskRecord) {
	*c = append(*c, fmt.Sprintf("%s@%g %s ready=%g start=%g finish=%g", ev.Kind, ev.Time, r.TaskID, r.ReadyAt, r.StartedAt, r.FinishedAt))
}

// TestAttemptSink: a ForWorkflow trace finds an AttemptSink as its sink
// or on either side of a Tee, nested or beside Retain, and hands it the
// task's record at each task-fail (as the attempt left it) and task-end
// (complete, before a counting trace frees it).
func TestAttemptSink(t *testing.T) {
	wf := testWorkflow(t, "a", "x")
	wt := wf.Tasks()[0]
	want := closings{
		"task-fail@2 a ready=0 start=1 finish=0",
		"task-end@7 a ready=3 start=4 finish=7",
	}
	for name, sink := range map[string]func(Sink) Sink{
		"alone":    func(c Sink) Sink { return c },
		"retained": func(c Sink) Sink { return Tee(Retain, c) },
		"first":    func(c Sink) Sink { return Tee(c, NewCSVSink(io.Discard)) },
		"nested":   func(c Sink) Sink { return Tee(Tee(NewJSONLSink(io.Discard), c), NewCSVSink(io.Discard)) },
	} {
		var got closings
		tr := ForWorkflow(wf, "p", sink(&got))
		record(tr, 0, TaskReady, wt, Event{})
		record(tr, 1, TaskStart, wt, Started("n0", 1, 1))
		record(tr, 2, TaskFail, wt, Named("crash"))
		run(tr, wt, execution{ready: 3, start: 4, readDone: 5, computeDone: 6, end: 7, node: "n0", cores: 1, attempt: 2})
		if !slices.Equal(got, want) {
			t.Errorf("%s: closed %q, want %q", name, got, want)
		}
	}
}
