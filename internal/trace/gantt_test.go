package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestRenderGantt(t *testing.T) {
	tr, _ := buildTrace(t)
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
	wf := testWorkflow(t, "long", "n", "tiny", "n")
	tr := ForWorkflow(wf, "p", Retain)
	run(tr, wf.Task("long"), execution{0, 0, 0, 100, 100, "n0", 1, 1, 0, 0})
	run(tr, wf.Task("tiny"), execution{50, 50, 50, 50.001, 50.001, "n0", 1, 1, 0, 0})
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
	wf := testWorkflow(t, "t", "n")
	tr := ForWorkflow(wf, "p", Retain)
	// No read phase (reads done at start), no write phase (ends at
	// compute's end).
	run(tr, wf.Task("t"), execution{1, 1, 1, 2, 2, "n0", 1, 1, 0, 0})
	var buf bytes.Buffer
	if err := tr.RenderGantt(&buf, 40); err != nil {
		t.Fatal(err)
	}
	if bar := strings.TrimSpace(buf.String()); !strings.Contains(bar, "#") || strings.ContainsAny(bar[1:], "rw") {
		t.Errorf("bar = %q, want compute glyphs only", bar)
	}
}
