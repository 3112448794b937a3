package workloads

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"bbwfsim/internal/workflow"
)

func TestScaleExactTaskCounts(t *testing.T) {
	for _, topo := range []string{"chain", "forkjoin", "montage"} {
		for _, n := range []int{1, 2, 3, 5, 7, 100, 1000, 2049} {
			wf, err := Scale(ScaleSpec{Topology: topo, Tasks: n, Width: 16})
			if err != nil {
				t.Fatalf("Scale(%s, %d): %v", topo, n, err)
			}
			if got := len(wf.Tasks()); got != n {
				t.Errorf("Scale(%s, %d): %d tasks", topo, n, got)
			}
			if _, err := wf.TopologicalOrder(); err != nil {
				t.Errorf("Scale(%s, %d): not a DAG: %v", topo, n, err)
			}
		}
	}
}

func TestScaleDeterministic(t *testing.T) {
	gen := func() []byte {
		wf, err := Scale(ScaleSpec{Topology: "montage", Tasks: 500, Width: 8, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		data, err := workflow.Marshal(wf)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := gen(), gen()
	if string(a) != string(b) {
		t.Fatal("same ScaleSpec produced different workflows")
	}
}

func TestScaleConnected(t *testing.T) {
	// Every block consumes the previous block's output, so the DAG must be
	// one weakly-connected component.
	for _, topo := range []string{"chain", "forkjoin", "montage"} {
		wf, err := Scale(ScaleSpec{Topology: topo, Tasks: 1000, Width: 8})
		if err != nil {
			t.Fatal(err)
		}
		tasks := wf.Tasks()
		seen := map[*workflow.Task]bool{tasks[0]: true}
		queue := []*workflow.Task{tasks[0]}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, next := range append(append([]*workflow.Task{}, cur.Parents()...), cur.Children()...) {
				if !seen[next] {
					seen[next] = true
					queue = append(queue, next)
				}
			}
		}
		if len(seen) != len(tasks) {
			t.Errorf("%s: %d of %d tasks reachable from task 0", topo, len(seen), len(tasks))
		}
	}
}

func TestParseScaleSpec(t *testing.T) {
	spec, err := ParseScaleSpec("montage:100000:512")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Topology != "montage" || spec.Tasks != 100000 || spec.Width != 512 {
		t.Fatalf("parsed %+v", spec)
	}
	for _, bad := range []string{"", "chain", "chain:x", "chain:0", "chain:5:0", "a:1:2:3"} {
		if _, err := ParseScaleSpec(bad); err == nil {
			t.Errorf("ParseScaleSpec(%q): no error", bad)
		}
	}
	if _, err := Scale(ScaleSpec{Topology: "ring", Tasks: 5}); err == nil {
		t.Error("unknown topology: no error")
	}
}

// scaleIDDigests pins the SHA-256 of each scale topology's name, task IDs
// and names and file IDs (workflowIDs, joined by newlines) at 3,000 tasks
// and width 16, so no change to how the generator formats them can move
// one.
var scaleIDDigests = map[string]string{
	"chain":    "f424453c41d92a0adf4a16549176298245d0c75a682155707cbd61b0cd0ae80a",
	"forkjoin": "6f2b8efd4a2b067b04a8da7359af9aef814defbdc9223138adc715f78f07cf34",
	"montage":  "865972935326eeaa9b86e866415ab89c68c58dcbc5cfcc39d0d06a6a2cc82edc",
}

// TestScaleIDsMatchSprintf: each scale topology's name is the
// fmt.Sprintf form, and its IDs are the pinned ones; adaptation breaks
// victim ties by file ID, so IDs must not move.
func TestScaleIDsMatchSprintf(t *testing.T) {
	for topo, digest := range scaleIDDigests {
		w, err := Scale(ScaleSpec{Topology: topo, Tasks: 3000, Width: 16, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("scale-%s-%d", topo, 3000); w.Name() != want {
			t.Errorf("%s: name %q, want %q", topo, w.Name(), want)
		}
		sum := sha256.Sum256([]byte(strings.Join(workflowIDs(w), "\n")))
		if got := hex.EncodeToString(sum[:]); got != digest {
			t.Errorf("%s: ID digest %s, pinned %s", topo, got, digest)
		}
	}
}
