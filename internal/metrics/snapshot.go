package metrics

import (
	"slices"
	"strconv"

	"bbwfsim/internal/jsonw"
)

// Sample is one counter or gauge series with its value.
type Sample struct {
	Family string `json:"family"`
	Key
	Value float64 `json:"value"`
}

// Histogram is one rendered histogram series. Bucket bounds are the
// snapshot-level BucketBounds; Buckets[i] counts observations in
// (bounds[i-1], bounds[i]], with a final +Inf bucket.
type Histogram struct {
	Family string `json:"family"`
	Key
	Buckets []uint64 `json:"buckets"`
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
}

// Snapshot is the immutable, deterministically ordered rendering of a
// Collector — the metrics artifact attached to core.Result, written by
// `bbsim -metrics`, and merged across campaign points. Series appear
// sorted by (family, key), so equal runs marshal to equal bytes.
type Snapshot struct {
	Platform string `json:"platform"`
	Workflow string `json:"workflow"`
	// Runs counts the executions merged into this snapshot (1 for a
	// single run).
	Runs         int         `json:"runs"`
	BucketBounds []float64   `json:"bucket_bounds"`
	Counters     []Sample    `json:"counters"`
	Gauges       []Sample    `json:"gauges"`
	Histograms   []Histogram `json:"histograms"`
}

// sortedSeries returns m's keys in deterministic order.
func sortedSeries[V any](m map[series]V) []series {
	out := make([]series, 0, len(m))
	//bbvet:ordered -- keys are sorted immediately below
	for s := range m {
		out = append(out, s)
	}
	slices.SortFunc(out, compareSeries)
	return out
}

// Snapshot renders the collector. The collector remains usable; the
// snapshot does not alias its state.
func (c *Collector) Snapshot() *Snapshot {
	if c == nil {
		return nil
	}
	s := &Snapshot{
		Platform:     c.platform,
		Workflow:     c.workflow,
		Runs:         1,
		BucketBounds: append([]float64{}, DefaultBuckets...),
	}
	for _, sr := range sortedSeries(c.counters) {
		s.Counters = append(s.Counters, Sample{Family: sr.family, Key: sr.key, Value: c.counts[c.counters[sr]]})
	}
	for _, sr := range sortedSeries(c.gauges) {
		s.Gauges = append(s.Gauges, Sample{Family: sr.family, Key: sr.key, Value: c.gauges[sr]})
	}
	for _, sr := range sortedSeries(c.hists) {
		h := c.hists[sr]
		s.Histograms = append(s.Histograms, Histogram{
			Family:  sr.family,
			Key:     sr.key,
			Buckets: append([]uint64{}, h.buckets...),
			Count:   h.count,
			Sum:     h.sum,
		})
	}
	return s
}

// Counter returns the value of one counter series (0 if absent).
func (s *Snapshot) Counter(family string, k Key) float64 {
	for _, c := range s.Counters {
		if c.Family == family && c.Key == k {
			return c.Value
		}
	}
	return 0
}

// Gauge returns the value of one gauge series and whether it exists.
func (s *Snapshot) Gauge(family string, k Key) (float64, bool) {
	for _, g := range s.Gauges {
		if g.Family == family && g.Key == k {
			return g.Value, true
		}
	}
	return 0, false
}

// JSON renders the snapshot as indented JSON with a trailing newline —
// the byte representation the determinism acceptance tests compare, laid
// out exactly as json.MarshalIndent(s, "", "  ") lays it out.
func (s *Snapshot) JSON() ([]byte, error) {
	w := jsonw.New(make([]byte, 0, s.SizeHint()))
	s.WriteJSON(w)
	b, err := w.Bytes()
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// SizeHint over-estimates the length of the snapshot's JSON, so a buffer
// sized by it rarely has to grow.
func (s *Snapshot) SizeHint() int {
	if s == nil {
		return 8
	}
	return 512 + 136*(len(s.Counters)+len(s.Gauges)) + 384*len(s.Histograms)
}

// WriteJSON writes the snapshot as one JSON value: null for a nil
// snapshot, otherwise an object whose members follow the struct tags.
func (s *Snapshot) WriteJSON(w *jsonw.Writer) {
	if s == nil {
		w.Null()
		return
	}
	w.BeginObject()
	w.StringField("platform", s.Platform)
	w.StringField("workflow", s.Workflow)
	w.IntField("runs", s.Runs)
	w.Key("bucket_bounds")
	w.Floats(s.BucketBounds)
	writeSamples(w, "counters", s.Counters)
	writeSamples(w, "gauges", s.Gauges)
	w.Key("histograms")
	if s.Histograms == nil {
		w.Null()
	} else {
		w.BeginArray()
		for i := range s.Histograms {
			h := &s.Histograms[i]
			w.BeginObject()
			w.StringField("family", h.Family)
			h.Key.writeFields(w)
			w.Key("buckets")
			w.Uints(h.Buckets)
			w.UintField("count", h.Count)
			w.FloatField("sum", h.Sum)
			w.EndObject()
		}
		w.EndArray()
	}
	w.EndObject()
}

func writeSamples(w *jsonw.Writer, name string, samples []Sample) {
	w.Key(name)
	if samples == nil {
		w.Null()
		return
	}
	w.BeginArray()
	for i := range samples {
		sm := &samples[i]
		w.BeginObject()
		w.StringField("family", sm.Family)
		sm.Key.writeFields(w)
		w.FloatField("value", sm.Value)
		w.EndObject()
	}
	w.EndArray()
}

// writeFields writes the key's labels as members of the enclosing object,
// each omitted when empty, as the omitempty tags say.
func (k *Key) writeFields(w *jsonw.Writer) {
	for _, l := range [...]struct{ name, v string }{
		{"tier", k.Tier}, {"op", k.Op}, {"phase", k.Phase}, {"task", k.Task}, {"service", k.Service},
	} {
		if l.v != "" {
			w.StringField(l.name, l.v)
		}
	}
}

// Merge folds the snapshots in index order into one: counters and
// histogram buckets add, gauges keep their maximum, Runs accumulate.
// Because every float addition happens in slice-index order, merging the
// per-point snapshots of a campaign yields bit-identical bytes no matter
// how many workers produced them — the same contract internal/runner gives
// tables and traces. Nil entries are skipped; merging nothing returns nil.
func Merge(snaps []*Snapshot) *Snapshot {
	out := &Snapshot{BucketBounds: append([]float64{}, DefaultBuckets...)}
	counters := map[series]float64{}
	gauges := map[series]float64{}
	hists := map[series]*histogram{}
	var corder, gorder, horder []series
	any := false
	for _, sn := range snaps {
		if sn == nil {
			continue
		}
		if !any {
			out.Platform, out.Workflow = sn.Platform, sn.Workflow
			any = true
		} else {
			if out.Platform != sn.Platform {
				out.Platform = "multi"
			}
			if out.Workflow != sn.Workflow {
				out.Workflow = "multi"
			}
		}
		out.Runs += sn.Runs
		for _, c := range sn.Counters {
			sr := series{c.Family, c.Key}
			if _, ok := counters[sr]; !ok {
				corder = append(corder, sr)
			}
			counters[sr] += c.Value
		}
		for _, g := range sn.Gauges {
			sr := series{g.Family, g.Key}
			if cur, ok := gauges[sr]; !ok || g.Value > cur {
				if !ok {
					gorder = append(gorder, sr)
				}
				gauges[sr] = g.Value
			}
		}
		for _, h := range sn.Histograms {
			sr := series{h.Family, h.Key}
			acc := hists[sr]
			if acc == nil {
				acc = &histogram{buckets: make([]uint64, len(DefaultBuckets)+1)}
				hists[sr] = acc
				horder = append(horder, sr)
			}
			for i, b := range h.Buckets {
				acc.buckets[i] += b
			}
			acc.count += h.Count
			acc.sum += h.Sum
		}
	}
	if !any {
		return nil
	}
	slices.SortFunc(corder, compareSeries)
	slices.SortFunc(gorder, compareSeries)
	slices.SortFunc(horder, compareSeries)
	for _, sr := range corder {
		out.Counters = append(out.Counters, Sample{Family: sr.family, Key: sr.key, Value: counters[sr]})
	}
	for _, sr := range gorder {
		out.Gauges = append(out.Gauges, Sample{Family: sr.family, Key: sr.key, Value: gauges[sr]})
	}
	for _, sr := range horder {
		h := hists[sr]
		out.Histograms = append(out.Histograms, Histogram{
			Family: sr.family, Key: sr.key,
			Buckets: h.buckets, Count: h.count, Sum: h.sum,
		})
	}
	return out
}

// labels renders the key as a Prometheus-style label block, or "" when
// every label is empty. Label order is fixed (tier, op, phase, task,
// service), so rendering is deterministic.
func (k Key) labels() string {
	pairs := ""
	add := func(name, v string) {
		if v == "" {
			return
		}
		if pairs != "" {
			pairs += ","
		}
		pairs += name + "=" + strconv.Quote(v)
	}
	add("tier", k.Tier)
	add("op", k.Op)
	add("phase", k.Phase)
	add("task", k.Task)
	add("service", k.Service)
	if pairs == "" {
		return ""
	}
	return "{" + pairs + "}"
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
