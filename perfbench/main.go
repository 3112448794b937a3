package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// size fixes how much work one round of each workload does. The benchmark
// runs fullSize; the tests run a smaller size through the same code.
type size struct {
	name      string
	quick     bool     // paper-full: experiments at their Quick size
	expIDs    []string // paper-full: experiment subset (nil = all)
	coldRound int      // service-cold: requests per round
	warm      int      // service-cold: requests sent in set-up
	schedJobs int      // sched-10k: jobs per campaign
}

var fullSize = size{name: "full", coldRound: 500, warm: 256, schedJobs: 10_000}

// setupReps is how many times each run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupReps = 5

// config is one invocation of one workload.
type config struct {
	workload string
	seed     int64
	budget   time.Duration // time the rounds and the host reference run for
	traced   bool
	dir      string // scratch files, spans and profiles
	size     size
	goldens  map[string]goldenRecord
}

// env is what a workload sees while it sets up and runs.
type env struct {
	config
	jobs   int     // worker goroutines: GOMAXPROCS
	tr     *tracer // nil outside traced rounds
	ck     *checker
	ref    *hostRef      // the host reference; nil in traced runs
	start  time.Time     // when the timed rounds began
	paused time.Duration // reference time spent inside the current round
}

// roundResult is what one fixed-size round reports besides its wall and
// CPU time, which the runner measures.
type roundResult struct {
	ops float64       // operations completed
	lat []float64     // seconds, one per request; nil: the round is the one call
	rec *goldenRecord // output every round must reproduce; nil if none
}

// instance is a set-up workload.
type instance interface {
	// round runs one fixed-size round; parent is the round's span.
	round(e *env, parent int) (roundResult, error)
	// verify runs the checks that need every round's output.
	verify(e *env) error
	// layers adds the traced run's per-layer metrics; plain holds the
	// run's untraced rounds.
	layers(e *env, plain []round, m map[string]float64) error
	close() error
}

type workload struct {
	name  string
	setup func(e *env) (instance, error)
}

var allWorkloads = []workload{
	{"paper-full", setupPaperFull},
	{"service-cold", setupServiceCold},
	{"sched-10k", setupSched},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

//go:embed testdata/golden.json
var goldenJSON []byte

func main() {
	if os.Getenv(refEnv) == "1" {
		if err := serveReference(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: reference: %v\n", err)
			os.Exit(1)
		}
		return
	}
	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are drawn from (paper-full and sched-10k ignore it)")
		seconds = flag.Float64("seconds", 30, "seconds the rounds and the host reference run for")
		trace   = flag.Int("trace", 0, "1 runs the traced variant, which prints the per-layer metrics")
		dir     = flag.String("dir", filepath.Join(".bench_build", "perfbench-out"), "directory for scratch files, spans and profiles")
	)
	flag.Parse()
	if _, ok := findWorkload(*name); !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0 or 1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	var goldens map[string]goldenRecord
	if err := json.Unmarshal(goldenJSON, &goldens); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: testdata/golden.json: %v\n", err)
		os.Exit(1)
	}
	rep, err := run(config{
		workload: *name, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, dir: *dir, size: fullSize, goldens: goldens,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// round is one measured round.
type round struct {
	wall, cpu float64
	traced    bool
	roundResult
}

// run sets the workload up setupReps times, runs its rounds for the time
// budget, checks its outputs and returns the report.
func run(cfg config) (*report, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	e := &env{config: cfg, jobs: runtime.GOMAXPROCS(0), ck: &checker{}}
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}

	var inst instance
	setups := make([]float64, 0, setupReps)
	e.tr = tr // set-up spans (campaign generation) are recorded too
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	e.tr = nil

	rep := &report{workload: cfg.workload, seed: cfg.seed, size: cfg.size.name}
	err := measureAndReport(e, w, tr, inst, setups, rep)
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	rep.attempted, rep.failed, rep.failures = e.ck.attempted, e.ck.failed, e.ck.failures
	return rep, nil
}

// measureAndReport runs the rounds, checks them and fills the report: the
// end-to-end metrics, or in a traced run the per-layer ones. A traced run
// alternates untraced and traced rounds under the CPU profiler, so drift
// on the host hits both alike.
func measureAndReport(e *env, w workload, tr *tracer, inst instance, setups []float64, rep *report) error {
	var prof *os.File
	base := filepath.Join(e.dir, fmt.Sprintf("%s-seed%d", e.workload, e.seed))
	if tr != nil {
		var err error
		if prof, err = os.Create(base + ".cpu.pprof"); err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return err
		}
	}
	// Only untraced runs report times, so only they time the reference.
	var ref *hostRef
	if tr == nil {
		var err error
		if ref, err = startReference(); err != nil {
			return fmt.Errorf("starting the reference: %w", err)
		}
	}
	e.ref = ref
	rs, err := measure(e, inst, tr, 2)
	e.ref = nil
	if ref != nil {
		if cerr := ref.close(); err == nil {
			err = cerr
		}
	}
	if tr != nil {
		pprof.StopCPUProfile()
		if cerr := prof.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	rss := peakRSSMB() // before the checks, which may hold more memory than the rounds

	var recs []goldenRecord
	for _, r := range rs {
		if r.rec != nil {
			recs = append(recs, *r.rec)
		}
	}
	checkRecords(e, w, recs)
	if len(recs) > 0 {
		rep.rec = &recs[0]
	}
	if err := inst.verify(e); err != nil {
		return err
	}
	if tr == nil {
		rep.endToEnd(setups, rs, rss, ref)
		return nil
	}

	var plain, traced []round
	var wall, cpu float64
	for _, r := range rs {
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		wall += r.wall
		cpu += r.cpu
	}
	m := map[string]float64{
		"runner.cpu_utilization":   cpu / (wall * float64(e.jobs)),
		"bench.trace_overhead_pct": 100 * (median(walls(traced))/median(walls(plain)) - 1),
	}
	e.tr = tr
	err = inst.layers(e, plain, m)
	e.tr = nil
	if err != nil {
		return err
	}
	if shares, err := profileShares(prof.Name()); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: cpu shares omitted: %v\n", err)
	} else {
		for k, v := range shares {
			m[k] = v
		}
	}
	if err := tr.write(base + ".spans.json"); err != nil {
		return err
	}
	rep.perLayer(m)
	return nil
}

func walls(rs []round) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.wall
	}
	return out
}

// measure runs rounds, at least minRounds, and no more once the next one,
// taking as long as the last, would overrun the budget. With a tracer,
// every second round is traced. A round's wall time leaves out the
// reference units run inside it (see env.pause).
func measure(e *env, inst instance, tr *tracer, minRounds int) ([]round, error) {
	var rs []round
	e.start = time.Now()
	var last time.Duration // the last round with its reference units
	for len(rs) < minRounds || time.Since(e.start)+last <= e.budget {
		began := time.Now()
		traced := tr != nil && len(rs)%2 == 1
		if traced {
			e.tr = tr
		}
		parent := e.tr.begin("round", -1, -1)
		cpu0 := cpuSeconds()
		e.paused = 0
		t0 := time.Now()
		res, err := inst.round(e, parent)
		wall := (time.Since(t0) - e.paused).Seconds()
		cpu := cpuSeconds() - cpu0
		e.tr.end(parent)
		e.tr = nil
		if err != nil {
			return nil, err
		}
		rs = append(rs, round{wall: wall, cpu: cpu, traced: traced, roundResult: res})
		if err := e.pause(); err != nil {
			return nil, err
		}
		last = time.Since(began)
	}
	return rs, nil
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// checker counts operations and checks, and the ones that failed.
type checker struct {
	attempted, failed int64
	failures          []string
}

// expect records one operation or check; ok=false counts it as failed.
func (c *checker) expect(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.failures) < 10 {
			c.failures = append(c.failures, fmt.Sprintf(format, args...))
		}
	}
}

// goldenRecord is what a workload's rounds must reproduce exactly. Two
// records are equal when their JSON encodings are: encoding/json writes
// the shortest decimal that round-trips each float64, so equal bytes mean
// equal bits.
type goldenRecord struct {
	SHA256   string         `json:"sha256,omitempty"`
	Policies []policyRecord `json:"policies,omitempty"`
}

type policyRecord struct {
	Policy       string  `json:"policy"`
	Completed    int     `json:"completed"`
	MeanWait     float64 `json:"mean_wait"`
	MeanSlowdown float64 `json:"mean_slowdown"`
}

func (g goldenRecord) key() string {
	b, err := json.Marshal(g)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return string(b)
}

// goldenKey names the golden of a workload at a size. Only workloads
// whose inputs ignore the seed have goldens.
func goldenKey(w workload, size string) string { return w.name + "/" + size }

// checkRecords checks that every round reproduced the first exactly, and
// that the first matches the committed golden when there is one.
func checkRecords(e *env, w workload, recs []goldenRecord) {
	for i := 1; i < len(recs); i++ {
		e.ck.expect(recs[i].key() == recs[0].key(), "round %d differs from round 0: %s vs %s", i, recs[i].key(), recs[0].key())
	}
	k := goldenKey(w, e.size.name)
	if want, ok := e.goldens[k]; ok && len(recs) > 0 {
		e.ck.expect(recs[0].key() == want.key(), "golden %s: got %s, want %s", k, recs[0].key(), want.key())
	}
}

// metric is one reported number with the per-round values behind it.
type metric struct {
	name, unit string
	value      float64
	vals       []float64
}

type report struct {
	workload, size    string
	seed              int64
	metrics           []metric
	attempted, failed int64
	failures          []string
	rec               *goldenRecord // the first round's record
	refUnits          []float64     // the reference's unit times, untraced runs only
	scale             float64       // what the reported times were multiplied by
}

func (r *report) add(name, unit string, value float64, vals []float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, vals: vals})
}

// endToEnd fills in the end-to-end metrics from the set-ups and rounds,
// with every time scaled by the reference (see hostRef).
func (r *report) endToEnd(setups []float64, rs []round, rss float64, ref *hostRef) {
	k := ref.scale()
	r.refUnits, r.scale = ref.units, k
	var setupV, cpuV, rateV, p50V, p90V, lat []float64
	for _, s := range setups {
		setupV = append(setupV, k*s)
	}
	for _, x := range rs {
		cpuV = append(cpuV, k*x.cpu)
		rateV = append(rateV, x.ops/(k*x.wall))
		if x.lat == nil {
			x.lat = []float64{x.wall}
		}
		sorted := sortedCopy(x.lat)
		p50V = append(p50V, 1e3*k*quantile(sorted, 0.5))
		p90V = append(p90V, 1e3*k*quantile(sorted, 0.9))
		lat = append(lat, x.lat...)
	}
	sort.Float64s(lat)
	r.add("setup_s", "s", median(setupV), setupV)
	r.add("cpu_s", "s", median(cpuV), cpuV)
	r.add("peak_rss_mb", "MB", rss, nil)
	r.add("ops_per_s", "1/s", median(rateV), rateV)
	// Latency percentiles pool every call of every round; the per-round
	// percentiles give the spread.
	r.add("latency_p50_ms", "ms", 1e3*k*quantile(lat, 0.5), p50V)
	r.add("latency_p90_ms", "ms", 1e3*k*quantile(lat, 0.9), p90V)
}

// perLayer fills in every per-layer metric; one a workload does not
// exercise reads 0.
func (r *report) perLayer(m map[string]float64) {
	for _, l := range perLayerMetrics() {
		r.add(l.name, l.unit, m[l.name], nil)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints a table of the metrics with the median, quartiles and count
// of their per-round values, then the result as one JSON line, which is
// always the last line of standard output.
func (r *report) write(w io.Writer) error {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "perfbench: workload=%s size=%s seed=%d gomaxprocs=%d\n", r.workload, r.size, r.seed, runtime.GOMAXPROCS(0))
	if len(r.refUnits) > 0 {
		s := sortedCopy(r.refUnits)
		fmt.Fprintf(&buf, "reference unit: median %.6g s, q1 %.6g s, q3 %.6g s, n %d; times below are scaled by %.6g\n",
			quantile(s, 0.5), quantile(s, 0.25), quantile(s, 0.75), len(s), r.scale)
	}
	fmt.Fprintf(&buf, "%-34s %14s %14s %14s %14s %4s  %s\n", "metric", "value", "median", "q1", "q3", "n", "unit")
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.metrics {
		if len(m.vals) == 0 {
			fmt.Fprintf(&buf, "%-34s %14.6g %14s %14s %14s %4d  %s\n", m.name, m.value, "", "", "", 1, m.unit)
		} else {
			s := sortedCopy(m.vals)
			fmt.Fprintf(&buf, "%-34s %14.6g %14.6g %14.6g %14.6g %4d  %s\n",
				m.name, m.value, quantile(s, 0.5), quantile(s, 0.25), quantile(s, 0.75), len(s), m.unit)
		}
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(&buf, "error_ratio %g (%d failed of %d operations and checks)\n", ratio, r.failed, r.attempted)
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %s\n", f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	buf.Write(line)
	buf.WriteByte('\n')
	_, err = w.Write(buf.Bytes())
	return err
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// quantile interpolates linearly between the closest ranks of sorted
// (NaN when sorted is empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}
