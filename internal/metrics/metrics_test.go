package metrics

import (
	"bytes"
	"strings"
	"testing"
)

func TestNilCollectorIsInert(t *testing.T) {
	var c *Collector
	c.Add(StorageBytesTotal, Key{Tier: "pfs", Op: OpRead}, 1)
	c.GaugeMax(StoragePeakBytes, Key{Service: "pfs"}, 1)
	c.HoldHistogram(StorageOpSeconds, Key{Tier: "pfs", Op: OpRead}).Observe(1)
	if s := c.Snapshot(); s != nil {
		t.Fatalf("nil collector snapshot = %v, want nil", s)
	}
}

func TestSnapshotSortedAndStable(t *testing.T) {
	build := func(order []string) *Snapshot {
		c := New("cori", "swarp")
		for _, tier := range order {
			c.Add(StorageBytesTotal, Key{Tier: tier, Op: OpRead}, 10)
			c.Add(StorageBytesTotal, Key{Tier: tier, Op: OpWrite}, 20)
		}
		c.GaugeMax(MakespanSeconds, Key{}, 42.5)
		c.HoldHistogram(StorageOpSeconds, Key{Tier: "pfs", Op: OpRead}).Observe(0.05)
		return c.Snapshot()
	}
	a := build([]string{"pfs", "shared-bb"})
	b := build([]string{"shared-bb", "pfs"})
	ja, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("snapshots differ with insertion order:\n%s\nvs\n%s", ja, jb)
	}
	if len(a.Counters) != 4 {
		t.Fatalf("got %d counters, want 4", len(a.Counters))
	}
	for i := 1; i < len(a.Counters); i++ {
		p, q := a.Counters[i-1], a.Counters[i]
		if p.Family > q.Family || (p.Family == q.Family && q.Key.compare(p.Key) < 0) {
			t.Fatalf("counters not sorted at %d: %+v then %+v", i, p, q)
		}
	}
}

func TestCounterAndGaugeSemantics(t *testing.T) {
	c := New("p", "w")
	k := Key{Task: "resample", Phase: PhaseRead}
	c.Add(TaskPhaseSecondsTotal, k, 1.5)
	c.Add(TaskPhaseSecondsTotal, k, 2.5)
	c.GaugeMax(StoragePeakBytes, Key{Service: "bb"}, 10)
	c.GaugeMax(StoragePeakBytes, Key{Service: "bb"}, 5) // lower: ignored
	s := c.Snapshot()
	if got := s.Counter(TaskPhaseSecondsTotal, k); got != 4 {
		t.Fatalf("counter = %g, want 4", got)
	}
	if got, ok := s.Gauge(StoragePeakBytes, Key{Service: "bb"}); !ok || got != 10 {
		t.Fatalf("gauge = %g,%v, want 10,true", got, ok)
	}
	if _, ok := s.Gauge(StoragePeakBytes, Key{Service: "missing"}); ok {
		t.Fatal("absent gauge reported present")
	}
}

func TestHistogramBuckets(t *testing.T) {
	c := New("p", "w")
	k := Key{Tier: "pfs", Op: OpRead}
	// One observation per region: <=0.001, <=0.01, and +Inf.
	c.HoldHistogram(StorageOpSeconds, k).Observe(0.001) // boundary lands in its bucket
	c.HoldHistogram(StorageOpSeconds, k).Observe(0.002)
	c.HoldHistogram(StorageOpSeconds, k).Observe(5000)
	s := c.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("got %d histograms, want 1", len(s.Histograms))
	}
	h := s.Histograms[0]
	if h.Count != 3 || h.Sum != 0.001+0.002+5000 {
		t.Fatalf("count=%d sum=%g", h.Count, h.Sum)
	}
	want := make([]uint64, len(DefaultBuckets)+1)
	want[0], want[1], want[len(want)-1] = 1, 1, 1
	for i := range want {
		if h.Buckets[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, h.Buckets[i], want[i], h.Buckets)
		}
	}
}

func TestMerge(t *testing.T) {
	mk := func(tier string, bytes, peak float64) *Snapshot {
		c := New("cori", "swarp")
		c.Add(StorageBytesTotal, Key{Tier: tier, Op: OpRead}, bytes)
		c.GaugeMax(StoragePeakBytes, Key{Service: "bb"}, peak)
		c.HoldHistogram(StorageOpSeconds, Key{Tier: tier, Op: OpRead}).Observe(0.5)
		return c.Snapshot()
	}
	a, b := mk("pfs", 100, 7), mk("pfs", 50, 9)
	m := Merge([]*Snapshot{a, nil, b})
	if m.Runs != 2 {
		t.Fatalf("runs = %d, want 2", m.Runs)
	}
	if got := m.Counter(StorageBytesTotal, Key{Tier: "pfs", Op: OpRead}); got != 150 {
		t.Fatalf("merged counter = %g, want 150", got)
	}
	if got, _ := m.Gauge(StoragePeakBytes, Key{Service: "bb"}); got != 9 {
		t.Fatalf("merged gauge = %g, want 9 (max)", got)
	}
	if m.Histograms[0].Count != 2 {
		t.Fatalf("merged histogram count = %d, want 2", m.Histograms[0].Count)
	}
	if m.Platform != "cori" || m.Workflow != "swarp" {
		t.Fatalf("platform/workflow = %q/%q", m.Platform, m.Workflow)
	}
	other := mk("pfs", 1, 1)
	other.Platform = "summit"
	if mm := Merge([]*Snapshot{a, other}); mm.Platform != "multi" {
		t.Fatalf("mixed-platform merge = %q, want multi", mm.Platform)
	}
	if Merge(nil) != nil || Merge([]*Snapshot{nil}) != nil {
		t.Fatal("merging nothing should return nil")
	}
}

func TestMergeMatchesSerialFold(t *testing.T) {
	// Index-ordered merge must equal a serial left fold byte-for-byte —
	// the property that makes -j N campaigns emit serial-identical bytes.
	snaps := make([]*Snapshot, 5)
	for i := range snaps {
		c := New("cori", "swarp")
		c.Add(TaskPhaseSecondsTotal, Key{Task: "t", Phase: PhaseRead}, 0.1*float64(i+1)/3)
		snaps[i] = c.Snapshot()
	}
	all := Merge(snaps)
	serial := snaps[0]
	for _, s := range snaps[1:] {
		serial = Merge([]*Snapshot{serial, s})
	}
	ja, _ := all.JSON()
	jb, _ := serial.JSON()
	if !bytes.Equal(ja, jb) {
		t.Fatalf("pairwise fold differs from flat merge:\n%s\nvs\n%s", ja, jb)
	}
}

func TestWriteProm(t *testing.T) {
	c := New("cori", "swarp")
	c.Add(StorageBytesTotal, Key{Tier: "pfs", Op: OpRead}, 1024)
	c.Add(StorageBytesTotal, Key{Tier: "pfs", Op: OpWrite}, 2048)
	c.GaugeMax(MakespanSeconds, Key{}, 12.5)
	c.HoldHistogram(StorageOpSeconds, Key{Tier: "pfs", Op: OpRead}).Observe(0.05)
	var buf bytes.Buffer
	if err := c.Snapshot().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE bbwfsim_storage_bytes_total counter\n",
		`bbwfsim_storage_bytes_total{tier="pfs",op="read"} 1024` + "\n",
		"# TYPE bbwfsim_makespan_seconds gauge\n",
		"bbwfsim_makespan_seconds 12.5\n",
		"# TYPE bbwfsim_storage_op_seconds histogram\n",
		`bbwfsim_storage_op_seconds_bucket{tier="pfs",op="read",le="0.1"} 1` + "\n",
		`bbwfsim_storage_op_seconds_bucket{tier="pfs",op="read",le="+Inf"} 1` + "\n",
		`bbwfsim_storage_op_seconds_count{tier="pfs",op="read"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE bbwfsim_storage_bytes_total"); n != 1 {
		t.Errorf("TYPE line repeated %d times", n)
	}
}

// TestHeldSeriesMatchLookups: series fed through handles held once render
// the same snapshot bytes as series looked up by family and key at every
// emission, past the counters
// the collector backs without growing; handles from a nil collector, and
// zero handles, are inert.
func TestHeldSeriesMatchLookups(t *testing.T) {
	looked, held := New("p", "w"), New("p", "w")
	var counters []HeldCounter
	var hists []HeldHistogram
	for i := 0; i < 200; i++ {
		k := Key{Task: strings.Repeat("t", 1+i%150), Op: OpRead}
		if i < 150 {
			counters = append(counters, held.HoldCounter(StorageBytesTotal, k))
			hists = append(hists, held.HoldHistogram(StorageOpSeconds, k))
		}
		v := float64(i) / 7
		looked.Add(StorageBytesTotal, k, v)
		looked.HoldHistogram(StorageOpSeconds, k).Observe(v)
		counters[i%150].Add(v)
		hists[i%150].Observe(v)
	}
	a, err := looked.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := held.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("held series render differently:\n%s\nwant:\n%s", b, a)
	}

	var nilCol *Collector
	nilCol.HoldCounter(StorageOpsTotal, Key{}).Add(1)
	nilCol.HoldHistogram(StorageOpSeconds, Key{}).Observe(1)
	HeldCounter{}.Add(1)
	HeldHistogram{}.Observe(1)
	if avg := testing.AllocsPerRun(100, func() { counters[0].Add(1); hists[0].Observe(1) }); avg != 0 {
		t.Errorf("held Add/Observe allocated %.1f times, want 0", avg)
	}
}
