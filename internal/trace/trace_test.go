package trace

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"bbwfsim/internal/units"
)

func buildTrace() *Trace {
	tr := New("wf", "plat", Retain)
	a := tr.Task("a")
	a.Name = "resample"
	a.Node = "n0"
	a.Cores = 4
	a.ReadyAt = 0
	a.StartedAt = 1
	a.ReadDoneAt = 3
	a.ComputeDone = 8
	a.FinishedAt = 10
	a.BytesRead = 100 * units.MB
	a.BytesWritten = 50 * units.MB
	b := tr.Task("b")
	b.Name = "resample"
	b.Node = "n0"
	b.ReadyAt = 0
	b.StartedAt = 2
	b.ReadDoneAt = 4
	b.ComputeDone = 6
	b.FinishedAt = 12
	c := tr.Task("c")
	c.Name = "combine"
	c.ReadyAt = 10
	c.StartedAt = 12
	c.ReadDoneAt = 13
	c.ComputeDone = 14
	c.FinishedAt = 15
	tr.Record(0, TaskReady, "a", Event{})
	tr.Record(15, TaskEnd, "c", Event{})
	return tr
}

func TestTaskRecordPhases(t *testing.T) {
	tr := buildTrace()
	a := tr.Task("a")
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

func TestMakespanTracksLastEvent(t *testing.T) {
	tr := buildTrace()
	if tr.Makespan() != 15 {
		t.Errorf("Makespan = %v, want 15", tr.Makespan())
	}
	tr.Record(20, TaskEnd, "late", Event{})
	if tr.Makespan() != 20 {
		t.Errorf("Makespan = %v after late event, want 20", tr.Makespan())
	}
}

func TestTaskIdempotent(t *testing.T) {
	tr := New("w", "p", Retain)
	r1 := tr.Task("x")
	r2 := tr.Task("x")
	if r1 != r2 {
		t.Error("Task() created a duplicate record")
	}
	if len(tr.Records()) != 1 {
		t.Errorf("Records = %d, want 1", len(tr.Records()))
	}
}

func TestSummarize(t *testing.T) {
	tr := buildTrace()
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

func TestJSONExport(t *testing.T) {
	tr := buildTrace()
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
	if len(decoded.Tasks) != 3 || len(decoded.Events) != 2 {
		t.Errorf("tasks/events = %d/%d, want 3/2", len(decoded.Tasks), len(decoded.Events))
	}
}

func TestSave(t *testing.T) {
	tr := buildTrace()
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
