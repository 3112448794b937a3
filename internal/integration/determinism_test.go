package integration

import (
	"bytes"
	"encoding/json"
	"testing"

	"bbwfsim/internal/core"
	"bbwfsim/internal/experiments"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/swarp"
	"bbwfsim/internal/trace"
)

// TestFig10Deterministic is the dynamic witness for what bbvet
// (internal/analysis) checks statically: the fig10 accuracy experiment —
// testbed runs, calibration, simulation, and table rendering — executed
// twice with the same seed must emit byte-identical CSV. Any wall-clock
// read, unseeded random draw, or map-ordered output along the path shows
// up here as a diff.
func TestFig10Deterministic(t *testing.T) {
	render := func() string {
		tables, err := experiments.RunFig10(experiments.Options{Quick: true, Seed: 7, Reps: 2})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, tb := range tables {
			if err := tb.CSV(&buf); err != nil {
				t.Fatal(err)
			}
			if err := tb.Fprint(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.String()
	}
	first, second := render(), render()
	if first != second {
		t.Fatalf("fig10 output differs between identical runs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// TestTraceDeterministic asserts the full event trace — not just the
// rendered tables — serializes bit-identically across repeated simulations
// of the same workflow.
func TestTraceDeterministic(t *testing.T) {
	run := func() []byte {
		wf := swarp.MustNew(swarp.Params{Pipelines: 4, CoresPerTask: 2})
		sim := core.MustNewSimulator(platform.Cori(2, platform.BBStriped))
		res, err := sim.Run(wf, core.RunOptions{TraceSink: trace.Retain, StagedFraction: 0.5, IntermediatesToBB: true})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(res.Trace)
		if err != nil {
			t.Fatal(err)
		}
		if res.Events == 0 {
			t.Fatal("kernel reported zero events fired")
		}
		return raw
	}
	first, second := run(), run()
	if !bytes.Equal(first, second) {
		t.Fatalf("trace JSON differs between identical runs (%d vs %d bytes)", len(first), len(second))
	}
}
