package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unicode/utf8"

	"bbwfsim/internal/metrics"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/storage"
	"bbwfsim/internal/swarp"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/units"
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

// oracleDoc is the ResultDoc EncodeResult renders for r, for the
// json.MarshalIndent oracle.
func oracleDoc(r *Result) *ResultDoc {
	return &ResultDoc{
		Schema: ResultDocSchema, Makespan: r.Makespan, Events: r.Events, PeakPending: r.PeakPending,
		Summaries: r.Summaries, BB: r.BB, PFS: r.PFS, Faults: r.Faults, Sched: r.Sched, Metrics: r.Metrics,
	}
}

// oracleBytes is json.MarshalIndent's rendering of v with the trailing
// newline: the bytes the direct writers must produce.
func oracleBytes(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("MarshalIndent: %v", err)
	}
	return append(b, '\n')
}

// edgeFloats are the values where encoding/json's float form changes:
// zeros of both signs, subnormals, and both sides of the 1e-6 and 1e21
// switches between the 'f' and 'e' forms.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3, 2.5e9, 36.8e9,
	math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64, 2.2250738585072009e-308, 2.2250738585072014e-308,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e-7, 1.5e-7, 1e-10, 1e-100, 1e-300,
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), 1e20, 1e22, 1e100, 1e300,
	math.MaxFloat64, 9007199254740993, 123456789012345678,
}

// edgeStrings cover encoding/json's escaping: HTML characters, every kind
// of control byte, invalid UTF-8 and the two JavaScript line separators.
var edgeStrings = []string{
	"", "resample", "combine", "bb@node003", "a<b>&c", "\x00\x01\x1f\x7f", "\b\f\n\r\t\"\\",
	"\xff", "ok\xc3", "\xed\xa0\x80", "line" + string(rune(0x2028)) + "sep" + string(rune(0x2029)),
	"é✓😀", "</script>",
}

type docGen struct{ rng *rand.Rand }

func (g docGen) float() float64 {
	switch g.rng.Intn(4) {
	case 0:
		return edgeFloats[g.rng.Intn(len(edgeFloats))]
	case 1:
		// Any finite bit pattern, subnormals included.
		for {
			if f := math.Float64frombits(g.rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	case 2:
		return float64(g.rng.Intn(1 << 20))
	}
	return g.rng.NormFloat64() * math.Pow(10, float64(g.rng.Intn(50)-25))
}

func (g docGen) str() string {
	if g.rng.Intn(3) == 0 {
		b := make([]byte, g.rng.Intn(12))
		g.rng.Read(b)
		return string(b)
	}
	return edgeStrings[g.rng.Intn(len(edgeStrings))]
}

func (g docGen) int() int {
	switch g.rng.Intn(3) {
	case 0:
		return 0
	case 1:
		return g.rng.Intn(1000)
	}
	return int(g.rng.Uint64())
}

func (g docGen) uint() uint64 {
	switch g.rng.Intn(3) {
	case 0:
		return math.MaxUint64 - uint64(g.rng.Intn(3))
	case 1:
		return uint64(g.rng.Intn(1000))
	}
	return g.rng.Uint64()
}

// n returns a slice length: a third nil, a sixth empty, the rest 1–4.
func (g docGen) n() (n int, isNil bool) {
	switch k := g.rng.Intn(6); k {
	case 0, 1:
		return 0, true
	case 2:
		return 0, false
	default:
		return k - 2, false
	}
}

func (g docGen) floats() []float64 {
	n, isNil := g.n()
	if isNil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = g.float()
	}
	return out
}

func (g docGen) key() metrics.Key {
	label := func() string {
		if g.rng.Intn(2) == 0 {
			return ""
		}
		return g.str()
	}
	return metrics.Key{Tier: label(), Op: label(), Phase: label(), Task: label(), Service: label()}
}

func (g docGen) snapshot() *metrics.Snapshot {
	s := &metrics.Snapshot{Platform: g.str(), Workflow: g.str(), Runs: g.int(), BucketBounds: g.floats()}
	samples := func() []metrics.Sample {
		n, isNil := g.n()
		if isNil {
			return nil
		}
		out := make([]metrics.Sample, n)
		for i := range out {
			out[i] = metrics.Sample{Family: g.str(), Key: g.key(), Value: g.float()}
		}
		return out
	}
	s.Counters, s.Gauges = samples(), samples()
	if n, isNil := g.n(); !isNil {
		s.Histograms = make([]metrics.Histogram, n)
		for i := range s.Histograms {
			h := metrics.Histogram{Family: g.str(), Key: g.key(), Count: g.uint(), Sum: g.float()}
			if m, isNil := g.n(); !isNil {
				h.Buckets = make([]uint64, m)
				for j := range h.Buckets {
					h.Buckets[j] = g.uint()
				}
			}
			s.Histograms[i] = h
		}
	}
	return s
}

func (g docGen) stats() storage.ServiceStats {
	return storage.ServiceStats{
		BytesRead: units.Bytes(g.float()), BytesWritten: units.Bytes(g.float()),
		ReadOps: g.int(), WriteOps: g.int(), ReadSeconds: g.float(), WriteSeconds: g.float(),
	}
}

// result draws a Result over every field EncodeResult renders, with nil
// and empty slices, absent Sched and Metrics, and the edge floats and
// strings above.
func (g docGen) result() *Result {
	r := &Result{Makespan: g.float(), Events: g.uint(), PeakPending: g.int(), BB: g.stats(), PFS: g.stats()}
	if n, isNil := g.n(); !isNil {
		r.Summaries = make([]trace.Summary, n)
		for i := range r.Summaries {
			r.Summaries[i] = trace.Summary{
				Name: g.str(), Count: g.int(), MeanExec: g.float(), MaxExec: g.float(), MeanIO: g.float(),
				MeanCompute: g.float(), MeanWait: g.float(),
				BytesRead: units.Bytes(g.float()), BytesWritten: units.Bytes(g.float()),
			}
		}
	}
	r.Faults = FaultStats{
		TaskFailures: g.int(), Retries: g.int(), NodeFailures: g.int(), BBRejections: g.int(),
		Fallbacks: g.int(), DegradeWindows: g.int(), CkptCommits: g.int(), CkptDrains: g.int(),
		CkptLosses: g.int(), CkptRestarts: g.int(), AdaptSpills: g.int(), AdaptReplications: g.int(),
		AdaptFallbacks: g.int(),
	}
	if g.rng.Intn(2) == 0 {
		r.Sched = &SchedStats{
			Policy: g.str(), Submitted: g.int(), Completed: g.int(), Failed: g.int(), Rejected: g.int(),
			NodeFailures: g.int(), MeanWait: g.float(), MeanResponse: g.float(), MeanSlowdown: g.float(),
		}
	}
	if g.rng.Intn(3) != 0 {
		r.Metrics = g.snapshot()
	}
	return r
}

// TestEncodeMatchesMarshalIndent checks the direct writer against its
// oracle: on 2,000 seeded results and as many bare snapshots, EncodeResult
// and Snapshot.JSON produce json.MarshalIndent's bytes.
func TestEncodeMatchesMarshalIndent(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		g := docGen{rand.New(rand.NewSource(seed))}
		r := g.result()
		got, err := EncodeResult(r)
		if err != nil {
			t.Fatalf("seed %d: EncodeResult: %v", seed, err)
		}
		if want := oracleBytes(t, oracleDoc(r)); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: EncodeResult differs from MarshalIndent:\n%s\nwant\n%s", seed, got, want)
		}
		s := g.snapshot()
		got, err = s.JSON()
		if err != nil {
			t.Fatalf("seed %d: Snapshot.JSON: %v", seed, err)
		}
		if want := oracleBytes(t, s); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: Snapshot.JSON differs from MarshalIndent:\n%s\nwant\n%s", seed, got, want)
		}
	}
	var nilSnap *metrics.Snapshot
	if got, err := nilSnap.JSON(); err != nil || string(got) != "null\n" {
		t.Errorf("nil snapshot: %q, %v; want \"null\\n\"", got, err)
	}
}

// TestEncodeRejectsNonFinite: NaN and ±Inf have no JSON form, so the
// encoders return an error for them wherever they sit, as encoding/json
// does, and do not panic.
func TestEncodeRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i, set := range []func(r *Result){
			func(r *Result) { r.Makespan = bad },
			func(r *Result) { r.BB.ReadSeconds = bad },
			func(r *Result) { r.Sched = &SchedStats{MeanSlowdown: bad} },
			func(r *Result) { r.Summaries = []trace.Summary{{MeanWait: bad}} },
			func(r *Result) { r.Metrics = &metrics.Snapshot{Gauges: []metrics.Sample{{Value: bad}}} },
			func(r *Result) { r.Metrics = &metrics.Snapshot{BucketBounds: []float64{1, bad}} },
		} {
			r := &Result{}
			set(r)
			if _, err := EncodeResult(r); err == nil {
				t.Errorf("%v in field %d encoded without error", bad, i)
			}
			if _, err := json.MarshalIndent(oracleDoc(r), "", "  "); err == nil {
				t.Errorf("oracle: %v in field %d marshalled without error", bad, i)
			}
			if r.Metrics != nil {
				if _, err := r.Metrics.JSON(); err == nil {
					t.Errorf("%v in snapshot field %d rendered without error", bad, i)
				}
			}
		}
	}
}

// FuzzEncodeResult feeds fuzzed floats, strings and integers into a seeded
// result. EncodeResult must match json.MarshalIndent byte for byte, or
// fail exactly when the oracle does (a NaN or ±Inf), and DecodeResult
// must give back the document whenever its strings are valid UTF-8
// (invalid bytes are replaced by U+FFFD on the way out, as encoding/json
// does).
func FuzzEncodeResult(f *testing.F) {
	f.Add(int64(1), 0.5, "resample", uint64(7), int64(3))
	f.Add(int64(2), math.Copysign(0, -1), "a<b>&c\x00", uint64(math.MaxUint64), int64(-1))
	f.Add(int64(3), 1e21, "\xff", uint64(0), int64(math.MaxInt64))
	f.Add(int64(4), math.Nextafter(1e-6, 0), "x"+string(rune(0x2028)), uint64(1)<<63, int64(math.MinInt64))
	f.Add(int64(5), math.NaN(), "", uint64(1), int64(0))
	f.Fuzz(func(t *testing.T, seed int64, x float64, s string, u uint64, n int64) {
		g := docGen{rand.New(rand.NewSource(seed))}
		r := g.result()
		r.Makespan, r.Events, r.PeakPending, r.Faults.Retries = x, u, int(n), int(n)
		r.BB.WriteSeconds = -x
		if len(r.Summaries) > 0 {
			r.Summaries[0].Name, r.Summaries[0].MeanIO = s, x
		}
		if r.Metrics == nil {
			r.Metrics = g.snapshot()
		}
		r.Metrics.Platform = s
		r.Metrics.Counters = append(r.Metrics.Counters, metrics.Sample{Family: s, Key: metrics.Key{Task: s}, Value: x})
		r.Metrics.Histograms = append(r.Metrics.Histograms, metrics.Histogram{Family: s, Buckets: []uint64{u, 0}, Count: u, Sum: x})

		got, err := EncodeResult(r)
		want, oracleErr := json.MarshalIndent(oracleDoc(r), "", "  ")
		if (err != nil) != (oracleErr != nil) {
			t.Fatalf("EncodeResult error %v, oracle error %v", err, oracleErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("EncodeResult differs from MarshalIndent:\n%s\nwant\n%s\n", got, want)
		}
		if !validUTF8(r) {
			return
		}
		doc, err := DecodeResult(got)
		if err != nil {
			t.Fatalf("DecodeResult: %v", err)
		}
		wantDoc := oracleDoc(r)
		if len(wantDoc.Summaries) == 0 {
			wantDoc.Summaries = nil // omitempty: an empty list is absent, and decodes as nil
		}
		if !reflect.DeepEqual(doc, wantDoc) {
			t.Fatalf("round trip changed the document:\n%+v\nwant\n%+v", doc, wantDoc)
		}
	})
}

// validUTF8 reports whether every string r renders is valid UTF-8, so
// that decoding the rendering gives the strings back.
func validUTF8(r *Result) bool {
	strs := []string{}
	for _, s := range r.Summaries {
		strs = append(strs, s.Name)
	}
	if r.Sched != nil {
		strs = append(strs, r.Sched.Policy)
	}
	if m := r.Metrics; m != nil {
		strs = append(strs, m.Platform, m.Workflow)
		keys := func(family string, k metrics.Key) {
			strs = append(strs, family, k.Tier, k.Op, k.Phase, k.Task, k.Service)
		}
		for _, c := range m.Counters {
			keys(c.Family, c.Key)
		}
		for _, c := range m.Gauges {
			keys(c.Family, c.Key)
		}
		for _, h := range m.Histograms {
			keys(h.Family, h.Key)
		}
	}
	for _, s := range strs {
		if !utf8.ValidString(s) {
			return false
		}
	}
	return true
}
