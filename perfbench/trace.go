package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"bbwfsim/internal/experiments"
	"bbwfsim/internal/sched"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	Req    int64  `json:"req"`    // request id, -1 when the span serves none
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced rounds pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// durations returns the closed spans' durations in seconds, by name.
func (t *tracer) durations() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string][]float64)
	for _, s := range t.spans {
		if s.End >= 0 {
			out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start).Seconds())
		}
	}
	return out
}

// median is the median duration in seconds of the spans named name (0 if
// there are none).
func (t *tracer) median(name string) float64 {
	d := t.durations()[name]
	if len(d) == 0 {
		return 0
	}
	return median(d)
}

// selfTimes is each closed span's duration minus its children's. The
// benchmark opens the children of one parent one after another, so their
// durations do not overlap and subtracting their sum is exact.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End >= 0 {
			self[i] += s.End - s.Start
			if s.Parent >= 0 {
				self[s.Parent] -= s.End - s.Start
			}
		}
	}
	return self
}

type spanSummary struct {
	N           int     `json:"n"`
	MedianUS    float64 `json:"median_us"`
	TotalMS     float64 `json:"total_ms"`
	SelfTotalMS float64 `json:"self_total_ms"`
}

// write saves every span plus a per-name summary as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	self := selfTimes(spans)
	summary := make(map[string]*spanSummary)
	for name, d := range t.durations() {
		s := &spanSummary{N: len(d), MedianUS: 1e6 * median(d)}
		for _, v := range d {
			s.TotalMS += 1e3 * v
		}
		summary[name] = s
	}
	for i, s := range spans {
		if s.End >= 0 {
			summary[s.Name].SelfTotalMS += float64(self[i]) / 1e6
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(struct {
		Summary map[string]*spanSummary `json:"summary"`
		Spans   []span                  `json:"spans"`
	}{summary, spans})
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// cpuCategories are the cpu.<name> shares the traced run reports: the
// repository's packages, plus JSON, the HTTP stack and the garbage
// collector.
var cpuCategories = []string{
	"sim", "flow", "exec", "storage", "trace", "metrics", "core", "sched",
	"service", "testbed", "experiments", "workloads", "json", "http", "gc",
}

// profileShares folds the CPU profile at path into cpu.<category> shares
// with `go tool pprof -top`.
func profileShares(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTop(string(out)), nil
}

// foldTop sums the flat% column of `go tool pprof -top` output by the
// category of each function, giving every category in cpuCategories a
// share in percent of all samples.
func foldTop(out string) map[string]float64 {
	shares := make(map[string]float64, len(cpuCategories))
	for _, c := range cpuCategories {
		shares["cpu."+c] = 0
	}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue // the column header
		}
		if c := category(f[5]); c != "" {
			shares["cpu."+c] += pct
		}
	}
	return shares
}

// category maps a symbol such as bbwfsim/internal/sim.(*Engine).Run to
// its cpu category, or "" for code outside every category.
func category(fn string) string {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case strings.HasPrefix(pkg, "bbwfsim/internal/"):
		name := strings.TrimPrefix(pkg, "bbwfsim/internal/")
		for _, c := range cpuCategories {
			if c == name {
				return c
			}
		}
	case pkg == "encoding/json":
		return "json"
	case pkg == "net" || pkg == "net/textproto" || pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "http"
	case pkg == "runtime" && isGC(strings.TrimPrefix(fn, "runtime.")):
		return "gc"
	}
	return ""
}

// isGC reports whether a runtime function belongs to the garbage
// collector: marking, scanning, sweeping and write barriers.
func isGC(name string) bool {
	if strings.HasPrefix(name, "gc") || strings.HasPrefix(name, "(*gc") {
		return true
	}
	for _, s := range []string{"scanobject", "scanblock", "scanframe", "scanstack", "greyobject",
		"markroot", "markBits", "sweep", "findObject", "wbBuf", "Barrier", "typePointers"} {
		if strings.Contains(name, s) {
			return true
		}
	}
	return false
}

// layerMetric is one per-layer metric the traced run reports.
type layerMetric struct{ name, unit string }

// perLayerMetrics lists every per-layer metric, in the order BENCHMARK.json
// lists them.
func perLayerMetrics() []layerMetric {
	ms := []layerMetric{
		{"service.parse_us", "us"},
		{"service.hash_us", "us"},
		{"service.cache_get_us", "us"},
		{"service.http_overhead_us", "us"},
		{"service.execute_ms", "ms"},
		{"service.journal_append_us", "us"},
		{"service.latency_p99_ms", "ms"},
		{"service.response_kb", "KiB"},
		{"workloads.campaign_ms", "ms"},
	}
	for _, p := range sched.Policies() {
		ms = append(ms, layerMetric{"sched." + p + "_s", "s"})
	}
	ms = append(ms, layerMetric{"sched.events", "count"}, layerMetric{"sched.us_per_event", "us"})
	for _, x := range experiments.All() {
		ms = append(ms, layerMetric{"experiments." + x.ID + "_s", "s"})
	}
	ms = append(ms, layerMetric{"runner.cpu_utilization", "ratio"})
	for _, c := range cpuCategories {
		ms = append(ms, layerMetric{"cpu." + c, "%"})
	}
	return append(ms, layerMetric{"bench.trace_overhead_pct", "%"})
}
