package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"bbwfsim/internal/jsonw"
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
// series, encoding/json's float and string forms), so two executions of
// the same request produce byte-identical documents and a cached document
// is indistinguishable from a recomputation. The bytes come from a direct
// writer (internal/jsonw) in the layout json.MarshalIndent gives this
// struct; its tests keep MarshalIndent as the oracle, so the struct tags
// below stay the document's schema. Schema is versioned so cached bytes
// from an older daemon never masquerade as current ones.
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
	doc := ResultDoc{
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
	return doc.encode()
}

// encode renders the document as json.MarshalIndent(d, "", "  ") does,
// plus the trailing newline.
func (d *ResultDoc) encode() ([]byte, error) {
	// About 1 KiB of fixed members and 320 bytes per summary, so the
	// writer's buffer rarely has to grow.
	w := jsonw.New(make([]byte, 0, 1024+320*len(d.Summaries)+d.Metrics.SizeHint()))
	w.BeginObject()
	w.IntField("schema", d.Schema)
	w.FloatField("makespan_s", d.Makespan)
	w.UintField("events", d.Events)
	w.IntField("peak_pending", d.PeakPending)
	if len(d.Summaries) > 0 {
		w.Key("summaries")
		w.BeginArray()
		for i := range d.Summaries {
			writeSummary(w, &d.Summaries[i])
		}
		w.EndArray()
	}
	writeServiceStats(w, "bb", &d.BB)
	writeServiceStats(w, "pfs", &d.PFS)
	writeFaultStats(w, &d.Faults)
	if d.Sched != nil {
		writeSchedStats(w, d.Sched)
	}
	if d.Metrics != nil {
		w.Key("metrics")
		d.Metrics.WriteJSON(w)
	}
	w.EndObject()
	b, err := w.Bytes()
	if err != nil {
		return nil, fmt.Errorf("core: encoding result: %w", err)
	}
	return append(b, '\n'), nil
}

// The writers below lay each struct out as encoding/json does: untagged
// fields under their Go names, in declaration order.

func writeSummary(w *jsonw.Writer, s *trace.Summary) {
	w.BeginObject()
	w.StringField("Name", s.Name)
	w.IntField("Count", s.Count)
	w.FloatField("MeanExec", s.MeanExec)
	w.FloatField("MaxExec", s.MaxExec)
	w.FloatField("MeanIO", s.MeanIO)
	w.FloatField("MeanCompute", s.MeanCompute)
	w.FloatField("MeanWait", s.MeanWait)
	w.FloatField("BytesRead", float64(s.BytesRead))
	w.FloatField("BytesWritten", float64(s.BytesWritten))
	w.EndObject()
}

func writeServiceStats(w *jsonw.Writer, key string, s *storage.ServiceStats) {
	w.Key(key)
	w.BeginObject()
	w.FloatField("BytesRead", float64(s.BytesRead))
	w.FloatField("BytesWritten", float64(s.BytesWritten))
	w.IntField("ReadOps", s.ReadOps)
	w.IntField("WriteOps", s.WriteOps)
	w.FloatField("ReadSeconds", s.ReadSeconds)
	w.FloatField("WriteSeconds", s.WriteSeconds)
	w.EndObject()
}

func writeFaultStats(w *jsonw.Writer, f *FaultStats) {
	w.Key("faults")
	w.BeginObject()
	w.IntField("TaskFailures", f.TaskFailures)
	w.IntField("Retries", f.Retries)
	w.IntField("NodeFailures", f.NodeFailures)
	w.IntField("BBRejections", f.BBRejections)
	w.IntField("Fallbacks", f.Fallbacks)
	w.IntField("DegradeWindows", f.DegradeWindows)
	w.IntField("CkptCommits", f.CkptCommits)
	w.IntField("CkptDrains", f.CkptDrains)
	w.IntField("CkptLosses", f.CkptLosses)
	w.IntField("CkptRestarts", f.CkptRestarts)
	w.IntField("AdaptSpills", f.AdaptSpills)
	w.IntField("AdaptReplications", f.AdaptReplications)
	w.IntField("AdaptFallbacks", f.AdaptFallbacks)
	w.EndObject()
}

func writeSchedStats(w *jsonw.Writer, s *SchedStats) {
	w.Key("sched")
	w.BeginObject()
	w.StringField("Policy", s.Policy)
	w.IntField("Submitted", s.Submitted)
	w.IntField("Completed", s.Completed)
	w.IntField("Failed", s.Failed)
	w.IntField("Rejected", s.Rejected)
	w.IntField("NodeFailures", s.NodeFailures)
	w.FloatField("MeanWait", s.MeanWait)
	w.FloatField("MeanResponse", s.MeanResponse)
	w.FloatField("MeanSlowdown", s.MeanSlowdown)
	w.EndObject()
}

// DecodeResult parses bytes EncodeResult produced, rejecting unknown
// fields, data after the document, and schema mismatches. It is the
// inverse of EncodeResult for clients of the wire form, and
// FuzzEncodeResult checks the round trip; the service's cache journal
// does not yet validate its entries through it.
//
//bbvet:allow unreached -- the wire form's inverse for clients outside this module; FuzzEncodeResult is its caller here
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
