package core

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"bbwfsim/internal/genomes"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/swarp"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/units"
)

func TestSimulatorValidatesConfig(t *testing.T) {
	cfg := platform.Cori(1, platform.BBPrivate)
	cfg.Nodes = 0
	if _, err := NewSimulator(cfg); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewSimulator(platform.Cori(1, platform.BBPrivate)); err != nil {
		t.Errorf("valid preset rejected: %v", err)
	}
}

func TestSWarpOnCoriRuns(t *testing.T) {
	sim := MustNewSimulator(platform.Cori(1, platform.BBPrivate))
	wf := swarp.MustNew(swarp.Params{Pipelines: 1})
	res, err := sim.Run(wf, RunOptions{StagedFraction: 1, IntermediatesToBB: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("non-positive makespan")
	}
	// Three task categories ran.
	if len(res.Summaries) != 3 {
		t.Errorf("summaries = %d, want 3", len(res.Summaries))
	}
	// All staged data went through the BB.
	if res.BB.BytesWritten != 768*units.MiB+768*units.MiB+96*units.MiB {
		t.Errorf("BB bytes written = %v", res.BB.BytesWritten)
	}
}

// TestRetainAnywhereInTee: Retain on either side of a Tee beside a JSONL
// sink retains the events and task records of a plain Retain run, also
// with metrics on, where the run tees the metrics fold around the
// caller's tee, and the JSONL sink gets one line per retained event.
func TestRetainAnywhereInTee(t *testing.T) {
	wf := swarp.MustNew(swarp.Params{Pipelines: 1})
	sim := MustNewSimulator(platform.Cori(1, platform.BBPrivate))
	opts := RunOptions{StagedFraction: 1, IntermediatesToBB: true, TraceSink: trace.Retain}
	ref, err := sim.Run(wf, opts)
	if err != nil {
		t.Fatal(err)
	}
	var lines bytes.Buffer
	for _, ev := range ref.Trace.Events() {
		raw, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		lines.Write(append(raw, '\n'))
	}
	sameRecord := func(a, b *trace.TaskRecord) bool { return *a == *b }
	for _, retainFirst := range []bool{true, false} {
		for _, metrics := range []bool{false, true} {
			var out bytes.Buffer
			jsonl := trace.NewJSONLSink(&out)
			sink := trace.Tee(jsonl, trace.Retain)
			if retainFirst {
				sink = trace.Tee(trace.Retain, jsonl)
			}
			opts.TraceSink, opts.Metrics = sink, metrics
			res, err := sim.Run(wf, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := jsonl.Close(); err != nil {
				t.Fatal(err)
			}
			events, records := res.Trace.Events(), res.Trace.Records()
			if !slices.Equal(events, ref.Trace.Events()) || !slices.EqualFunc(records, ref.Trace.Records(), sameRecord) {
				t.Errorf("Retain first %v, metrics %v: retained %d events and %d records, want %d and %d",
					retainFirst, metrics, len(events), len(records), len(ref.Trace.Events()), len(ref.Trace.Records()))
			}
			if !bytes.Equal(out.Bytes(), lines.Bytes()) {
				t.Errorf("Retain first %v, metrics %v: the JSONL sink got %d lines, want one per event (%d)",
					retainFirst, metrics, bytes.Count(out.Bytes(), []byte("\n")), len(ref.Trace.Events()))
			}
		}
	}
}

func TestSimulatorDeterministic(t *testing.T) {
	wf := swarp.MustNew(swarp.Params{Pipelines: 4})
	run := func() float64 {
		sim := MustNewSimulator(platform.Cori(1, platform.BBStriped))
		res, err := sim.Run(wf, RunOptions{StagedFraction: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	if a, b := run(), run(); a != b {
		t.Errorf("simulator not deterministic: %v vs %v", a, b)
	}
}

func TestBBSpeedsUpSimulatedSWarp(t *testing.T) {
	// In the lightweight model (Table I), the BB strictly beats the PFS,
	// so staging everything must shrink the makespan.
	wf := swarp.MustNew(swarp.Params{Pipelines: 1})
	sim := MustNewSimulator(platform.Cori(1, platform.BBPrivate))
	slow, err := sim.Run(wf, RunOptions{StagedFraction: 0, IntermediatesToBB: false})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := sim.Run(wf, RunOptions{StagedFraction: 1, IntermediatesToBB: true})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Makespan >= slow.Makespan {
		t.Errorf("all-BB (%.2fs) should beat all-PFS (%.2fs) in simulation", fast.Makespan, slow.Makespan)
	}
}

func TestGenomesOnSummit(t *testing.T) {
	wf := genomes.MustNew(genomes.Params{Chromosomes: 2})
	sim := MustNewSimulator(platform.Summit(4))
	res, err := sim.Run(wf, RunOptions{TraceSink: trace.Retain, StagedFraction: 1, PrePlaceInputs: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Error("non-positive makespan")
	}
	if len(res.Trace.Records()) != 83 {
		t.Errorf("records = %d, want 83", len(res.Trace.Records()))
	}
}
