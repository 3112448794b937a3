package placement

import (
	"testing"

	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

// edgeWorkflow builds source → worker → sink with one input file per given
// size (consumed by worker) and one intermediate per size (worker → sink).
func edgeWorkflow(t *testing.T, sizes []units.Bytes) *workflow.Workflow {
	t.Helper()
	wf := workflow.New("edge")
	var inputs, mids []string
	for i, sz := range sizes {
		in := "in" + string(rune('a'+i))
		mid := "mid" + string(rune('a'+i))
		wf.MustAddFile(in, sz)
		wf.MustAddFile(mid, sz)
		inputs = append(inputs, in)
		mids = append(mids, mid)
	}
	wf.MustAddTask(workflow.TaskSpec{ID: "worker", Name: "worker", Work: 1, Inputs: inputs, Outputs: mids})
	wf.MustAddTask(workflow.TaskSpec{ID: "sink", Name: "sink", Work: 1, Inputs: mids})
	return wf
}

// TestZeroSizeFiles drives the fraction and greedy policies over zero-byte
// files: they must be selectable, contribute zero BB bytes, and never
// consume budget.
func TestZeroSizeFiles(t *testing.T) {
	wf := edgeWorkflow(t, []units.Bytes{0, 0, 0})
	s := mustFraction(t, wf, 1, true)
	if got := s.BBBytes(wf); got != 0 {
		t.Errorf("BBBytes of zero-size selection = %v, want 0", got)
	}
	if s.Count() != 6 {
		t.Errorf("fraction 1 + intermediates selected %d of 6 zero-size files", s.Count())
	}
	// A 1-byte budget fits every zero-size candidate.
	if g := NewSizeGreedy(wf, 1, true); g.Count() != 6 {
		t.Errorf("size-greedy with 1 B budget selected %d zero-size files, want 6", g.Count())
	}
}

// TestFractionExtremes pins the 0% and 100% staging boundaries, including
// a workflow with no stageable files at all (every file is produced by a
// compute task).
func TestFractionExtremes(t *testing.T) {
	wf := edgeWorkflow(t, []units.Bytes{units.MiB, 2 * units.MiB})
	zero := mustFraction(t, wf, 0, false)
	if zero.Count() != 0 {
		t.Errorf("fraction 0 selected %d files, want 0", zero.Count())
	}
	full := mustFraction(t, wf, 1, false)
	for _, id := range []string{"ina", "inb"} {
		if !full.Contains(id) {
			t.Errorf("fraction 1 did not stage input %s", id)
		}
	}
	if full.Contains("mida") {
		t.Error("fraction policy without intermediates staged an intermediate")
	}

	noInputs := workflow.New("no-inputs")
	noInputs.MustAddFile("out", units.MiB)
	noInputs.MustAddTask(workflow.TaskSpec{ID: "gen", Name: "gen", Work: 1, Outputs: []string{"out"}})
	noInputs.MustAddTask(workflow.TaskSpec{ID: "use", Name: "use", Work: 1, Inputs: []string{"out"}})
	if s := mustFraction(t, noInputs, 1, false); s.Count() != 0 {
		t.Errorf("fraction 1 on a workflow with no stageable files selected %d", s.Count())
	}
}

// TestGreedySkipsOversizedKeepsSmaller: the budgeted pick must skip a file
// that would overflow the budget but still admit later, smaller files —
// it walks the whole candidate list rather than stopping at the first
// overflow.
func TestGreedySkipsOversizedKeepsSmaller(t *testing.T) {
	wf := edgeWorkflow(t, []units.Bytes{10 * units.MiB, units.MiB})
	s := NewSizeGreedy(wf, 3*units.MiB, false) // large-first: 10 MiB files skipped
	if s.Count() == 0 {
		t.Fatal("greedy selected nothing despite fitting candidates")
	}
	for _, id := range []string{"ina", "mida"} {
		if s.Contains(id) {
			t.Errorf("greedy admitted %s, which overflows the budget", id)
		}
	}
	if got := s.BBBytes(wf); got > 3*units.MiB {
		t.Errorf("greedy selection %v exceeds the 3 MiB budget", got)
	}
}
