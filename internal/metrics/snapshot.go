package metrics

import (
	"encoding/json"
	"sort"
	"strconv"
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
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
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

// JSON marshals the snapshot as indented JSON with a trailing newline —
// the byte representation the determinism acceptance tests compare.
func (s *Snapshot) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
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
	sort.Slice(corder, func(i, j int) bool { return corder[i].less(corder[j]) })
	sort.Slice(gorder, func(i, j int) bool { return gorder[i].less(gorder[j]) })
	sort.Slice(horder, func(i, j int) bool { return horder[i].less(horder[j]) })
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
