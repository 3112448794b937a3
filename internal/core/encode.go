package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"bbwfsim/internal/metrics"
	"bbwfsim/internal/storage"
	"bbwfsim/internal/trace"
)

// ResultDoc is the canonical wire form of a Result: everything a client of
// the simulation service needs — makespan, per-category summaries, storage
// traffic, fault tallies, the full metrics snapshot, campaign accounting —
// minus the event trace, whose size is unbounded and which replay consumers
// fetch through the trace sinks instead.
//
// The encoding is the service cache's identity witness: EncodeResult is a
// deterministic function of the Result (fixed field order, sorted metric
// series, exact float formatting via encoding/json), so two executions of
// the same request produce byte-identical documents and a cached document
// is indistinguishable from a recomputation. Schema is versioned so cached
// bytes from an older daemon never masquerade as current ones.
type ResultDoc struct {
	// Schema is the document version; bump it whenever a field is added,
	// removed, or re-interpreted so content hashes never collide across
	// incompatible layouts.
	Schema int `json:"schema"`
	// Makespan is the run's makespan in simulated seconds.
	Makespan float64 `json:"makespan_s"`
	// Events and PeakPending are the kernel's deterministic cost metrics.
	Events      uint64 `json:"events"`
	PeakPending int    `json:"peak_pending"`
	// Summaries aggregates task records by category, sorted by name.
	Summaries []trace.Summary `json:"summaries,omitempty"`
	// BB and PFS are the storage services' traffic statistics.
	BB  storage.ServiceStats `json:"bb"`
	PFS storage.ServiceStats `json:"pfs"`
	// Faults counts the run's fault and recovery events.
	Faults FaultStats `json:"faults"`
	// Sched carries batch-campaign accounting; nil for single runs.
	Sched *SchedStats `json:"sched,omitempty"`
	// Metrics is the run's observability snapshot, deterministically
	// ordered by (family, key).
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
}

// ResultDocSchema is the current ResultDoc version.
const ResultDocSchema = 1

// ModelVersion names the simulation model whose output EncodeResult
// renders. Bump it whenever a change moves the encoded bytes of an
// unchanged request — new solver counter values, a regenerated golden, a
// ResultDocSchema bump: the service mixes it into every cache key and
// journal header, so a daemon restarted on a new model never serves the
// old one's results as hits. The tripwire in internal/service pins the
// SHA-256 of EncodeResult for a handful of seeded requests against it.
const ModelVersion = 2

// EncodeResult renders the result as its canonical byte form: indented
// JSON with a trailing newline, the same convention metrics.Snapshot.JSON
// uses. Byte-identical inputs are the contract, not a best effort — the
// service invariant harness replays seeded requests and compares encoded
// bytes bit for bit.
func EncodeResult(r *Result) ([]byte, error) {
	if r == nil {
		return nil, fmt.Errorf("core: cannot encode a nil result")
	}
	doc := &ResultDoc{
		Schema:      ResultDocSchema,
		Makespan:    r.Makespan,
		Events:      r.Events,
		PeakPending: r.PeakPending,
		Summaries:   r.Summaries,
		BB:          r.BB,
		PFS:         r.PFS,
		Faults:      r.Faults,
		Sched:       r.Sched,
		Metrics:     r.Metrics,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeResult parses bytes EncodeResult produced, rejecting unknown
// fields, data after the document, and schema mismatches. It is the
// inverse of EncodeResult for clients of the wire form; the service's
// cache journal does not yet validate its entries through it.
//
//bbvet:allow unreached -- the EncodeResult round-trip fuzz target planned among the independent oracles is its next caller
func DecodeResult(data []byte) (*ResultDoc, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var doc ResultDoc
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("core: decoding result document: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("core: decoding result document: data after the document")
	}
	if doc.Schema != ResultDocSchema {
		return nil, fmt.Errorf("core: result document schema %d, want %d", doc.Schema, ResultDocSchema)
	}
	return &doc, nil
}
