package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestRenderGantt(t *testing.T) {
	tr := buildTrace()
	var buf bytes.Buffer
	if err := tr.RenderGantt(&buf, 40); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// 3 task rows + 1 axis row.
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), out)
	}
	// Sorted by start time: a (1), b (2), c (12).
	if !strings.HasPrefix(lines[0], "a") || !strings.HasPrefix(lines[1], "b") || !strings.HasPrefix(lines[2], "c") {
		t.Errorf("rows out of order:\n%s", out)
	}
	// Every phase glyph appears.
	for _, g := range []string{"r", "#", "w"} {
		if !strings.Contains(out, g) {
			t.Errorf("glyph %q missing:\n%s", g, out)
		}
	}
	// Axis ends with the makespan.
	if !strings.Contains(lines[3], "15.00s") {
		t.Errorf("axis missing makespan:\n%s", out)
	}
	// Later tasks start further right: first glyph of c after first of a.
	idx := func(line string) int {
		bar := line[strings.Index(line, "[")+1:]
		for i, ch := range bar {
			if ch != ' ' {
				return i
			}
		}
		return -1
	}
	if idx(lines[2]) <= idx(lines[0]) {
		t.Errorf("row c does not start after row a:\n%s", out)
	}
}

func TestRenderGanttEmpty(t *testing.T) {
	tr := New("w", "p", Retain)
	var buf bytes.Buffer
	if err := tr.RenderGantt(&buf, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty trace") {
		t.Errorf("empty trace output = %q", buf.String())
	}
}

func TestRenderGanttTinyTaskVisible(t *testing.T) {
	tr := New("w", "p", Retain)
	long := tr.Task("long")
	long.StartedAt = 0
	long.ReadDoneAt = 0
	long.ComputeDone = 100
	long.FinishedAt = 100
	tiny := tr.Task("tiny")
	tiny.StartedAt = 50
	tiny.ReadDoneAt = 50
	tiny.ComputeDone = 50.001
	tiny.FinishedAt = 50.001
	tr.Record(100, TaskEnd, "long", Event{})
	var buf bytes.Buffer
	if err := tr.RenderGantt(&buf, 40); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "tiny") && !strings.Contains(line, "#") {
			t.Errorf("tiny task invisible: %q", line)
		}
	}
}

func TestGanttSkipsEmptyPhases(t *testing.T) {
	tr := New("w", "p", Retain)
	r := tr.Task("t")
	r.StartedAt = 1
	r.ReadDoneAt = 1 // no read phase
	r.ComputeDone = 2
	r.FinishedAt = 2 // no write phase
	tr.Record(2, TaskEnd, "t", Event{})
	var buf bytes.Buffer
	if err := tr.RenderGantt(&buf, 40); err != nil {
		t.Fatal(err)
	}
	if bar := strings.TrimSpace(buf.String()); !strings.Contains(bar, "#") || strings.ContainsAny(bar[1:], "rw") {
		t.Errorf("bar = %q, want compute glyphs only", bar)
	}
}
