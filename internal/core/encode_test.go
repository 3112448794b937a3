package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"bbwfsim/internal/platform"
	"bbwfsim/internal/swarp"
)

func TestEncodeResultDeterministic(t *testing.T) {
	run := func() []byte {
		sim := MustNewSimulator(platform.Cori(2, platform.BBStriped))
		wf := swarp.MustNew(swarp.Params{Pipelines: 2})
		res, err := sim.Run(wf, RunOptions{StagedFraction: 0.5, IntermediatesToBB: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := EncodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("two identical runs encoded to different bytes")
	}
	if a[len(a)-1] != '\n' {
		t.Error("encoded document missing trailing newline")
	}

	doc, err := DecodeResult(a)
	if err != nil {
		t.Fatalf("DecodeResult: %v", err)
	}
	if doc.Schema != ResultDocSchema {
		t.Errorf("schema = %d, want %d", doc.Schema, ResultDocSchema)
	}
	if doc.Makespan <= 0 {
		t.Error("non-positive makespan in decoded document")
	}
	if len(doc.Summaries) == 0 {
		t.Error("decoded document lost summaries")
	}

	// The trace never rides along: a retained-mode run must encode without
	// a trace field even when res.Trace is populated.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(a, &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["trace"]; ok {
		t.Error("encoded document carries a trace field")
	}
}

func TestEncodeResultRejectsNil(t *testing.T) {
	if _, err := EncodeResult(nil); err == nil {
		t.Error("nil result encoded without error")
	}
}

func TestDecodeResultRejectsSchemaMismatch(t *testing.T) {
	if _, err := DecodeResult([]byte(`{"schema": 999}`)); err == nil {
		t.Error("wrong-schema document decoded without error")
	}
	if _, err := DecodeResult([]byte(`not json`)); err == nil {
		t.Error("malformed document decoded without error")
	}
	if _, err := DecodeResult([]byte(`{"schema": 1, "bogus": 0}`)); err == nil {
		t.Error("document with an unknown field decoded without error")
	}
	if _, err := DecodeResult([]byte(`{"schema": 1} {"schema": 1}`)); err == nil {
		t.Error("document with trailing data decoded without error")
	}
}
