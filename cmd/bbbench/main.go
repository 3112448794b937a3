// Command bbbench maintains the repository's performance ledger. It runs a
// fixed suite of micro-benchmarks (the flow solver's hot paths), macro
// benchmarks (a full 1000Genomes simulation, a pressured-BB SWarp run with
// the adaptation layer off and on, a Quick campaign at -j 1 and
// at -j GOMAXPROCS), and an accuracy guardrail (the Fig. 10 average errors),
// then writes one BENCH_<n>.json snapshot. Committing a snapshot per
// performance PR makes the perf trajectory part of the repo's history, and
// the compare mode turns the latest snapshot into a CI regression gate.
//
// Usage:
//
//	bbbench                       # run the suite, write BENCH_<next>.json
//	bbbench -o my.json            # explicit output path ("-" for stdout)
//	bbbench -against BENCH_1.json # run, then fail on >20% ns/op regression
//	bbbench -against BENCH_1.json -tol 0.5
//	bbbench -repeat 3             # keep the fastest of 3 passes per entry
//
// Wall-clock numbers are machine-dependent by nature, so snapshots record
// GOMAXPROCS and the Go version alongside every result; the regression gate
// compares like with like only in CI, where hardware is stable. The
// simulated results themselves are deterministic — the accuracy entries and
// the zero-allocation probe must reproduce exactly on any machine.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"testing"

	"bbwfsim/internal/adapt"
	"bbwfsim/internal/analysis"
	"bbwfsim/internal/core"
	"bbwfsim/internal/experiments"
	"bbwfsim/internal/flow"
	"bbwfsim/internal/genomes"
	"bbwfsim/internal/placement"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/service"
	"bbwfsim/internal/sim"
	"bbwfsim/internal/swarp"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workloads"
)

// Snapshot is the BENCH_<n>.json schema.
type Snapshot struct {
	Schema     int    `json:"schema"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Jobs       int    `json:"jobs"` // worker count used by the parallel campaign entries

	// Benchmarks are wall-clock suite entries; ns_per_op is what the
	// compare mode gates on.
	Benchmarks []Bench `json:"benchmarks"`

	// CampaignSpeedup is serial ns/op over parallel ns/op for the Quick
	// 1000Genomes campaign — the tentpole's headline number. On a
	// single-core machine it sits near 1 by construction.
	CampaignSpeedup float64 `json:"campaign_speedup"`

	// Accuracy entries guard against perf work silently shifting simulated
	// results: the Fig. 10 average errors are bit-deterministic, so any
	// drift here is a correctness bug, not noise.
	Accuracy []Accuracy `json:"accuracy"`

	// FlowRecomputeAllocsPerOp is the steady-state allocation count of the
	// flow solver's rate recompute; the contract is exactly 0.
	FlowRecomputeAllocsPerOp float64 `json:"flow_recompute_allocs_per_op"`

	// TraceBytesRetained / TraceBytesCounting are the live heap bytes still
	// reachable from a finished 100k-task run's Result with a retaining
	// vs. a counting trace. The suite fails outright if counting does not
	// stay under a fifth of retained — that ratio is the non-retaining
	// traces' O(active tasks) memory contract, measured rather than
	// asserted.
	TraceBytesRetained int64 `json:"trace_bytes_retained_100k"`
	TraceBytesCounting int64 `json:"trace_bytes_counting_100k"`
}

// Bench is one suite entry.
type Bench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// Accuracy is one experiment-table accuracy entry.
type Accuracy struct {
	Table     string  `json:"table"`
	AvgErrPct float64 `json:"avg_err_pct"`
}

func main() {
	var (
		out     = flag.String("o", "", "output path (default: next free BENCH_<n>.json; \"-\" for stdout)")
		against = flag.String("against", "", "baseline BENCH_<n>.json to compare with; exit 1 on regression")
		tol     = flag.Float64("tol", 0.20, "allowed fractional ns/op growth vs the baseline")
		repeat  = flag.Int("repeat", 1, "benchmark passes per entry; the fastest is recorded (min-of-N damps host contention)")
	)
	flag.Parse()

	snap, err := runSuite(*repeat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bbbench: %v\n", err)
		os.Exit(1)
	}

	if err := writeSnapshot(snap, *out); err != nil {
		fmt.Fprintf(os.Stderr, "bbbench: %v\n", err)
		os.Exit(1)
	}

	if *against != "" {
		failures, err := compare(snap, *against, *tol)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bbbench: %v\n", err)
			os.Exit(1)
		}
		if len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintf(os.Stderr, "bbbench: REGRESSION: %s\n", f)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bbbench: no regressions vs %s (tolerance %.0f%%)\n", *against, 100**tol)
	}
}

// runSuite executes every ledger entry. Each testing.Benchmark call
// self-calibrates its iteration count (~1 s per entry); with repeat > 1
// each entry runs that many full passes and the fastest one is recorded —
// wall-clock noise from a contended host only ever inflates a measurement,
// so the minimum is the best estimator of the code's true cost.
func runSuite(repeat int) (*Snapshot, error) {
	snap := &Snapshot{
		Schema:     1,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Jobs:       runtime.GOMAXPROCS(0),
	}

	// --- flow-solver micro-benchmarks (mirror internal/flow/bench_test.go).
	record := func(name string, fn func(b *testing.B)) testing.BenchmarkResult {
		r := testing.Benchmark(fn)
		for pass := 1; pass < repeat; pass++ {
			if cand := testing.Benchmark(fn); cand.NsPerOp() < r.NsPerOp() {
				r = cand
			}
		}
		snap.Benchmarks = append(snap.Benchmarks, Bench{
			Name:        name,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
		})
		fmt.Fprintf(os.Stderr, "bbbench: %-32s %12.0f ns/op %8d allocs/op\n",
			name, float64(r.NsPerOp()), r.AllocsPerOp())
		return r
	}

	record("flow/concurrent-256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := sim.NewEngine()
			n := flow.NewNetwork(e)
			link := n.NewResource("link", 1000)
			disk := n.NewResource("disk", 800)
			done := 0
			for j := 0; j < 256; j++ {
				n.StartFlow(float64(100+j), []*flow.Resource{link, disk}, flow.Options{}, func() { done++ })
			}
			e.Run()
			if done != 256 {
				b.Fatalf("completed %d of 256 flows", done)
			}
		}
	})
	record("flow/sparse-platform-32n", func(b *testing.B) {
		const nodes = 32
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := sim.NewEngine()
			n := flow.NewNetwork(e)
			links := make([]*flow.Resource, nodes)
			disks := make([]*flow.Resource, nodes)
			for j := 0; j < nodes; j++ {
				links[j] = n.NewResource("link", 1000)
				disks[j] = n.NewResource("disk", 800)
			}
			done := 0
			for j := 0; j < 4*nodes; j++ {
				src := j % nodes
				n.StartFlow(float64(100+j), []*flow.Resource{links[src], disks[(src+1)%nodes]}, flow.Options{}, func() { done++ })
			}
			e.Run()
			if done != 4*nodes {
				b.Fatalf("completed %d of %d flows", done, 4*nodes)
			}
		}
	})

	// --- static-analysis wall clock: a full module load plus the 12-rule
	// suite (call graph included). bbvet gates every CI run, so its own
	// cost is part of the repo's perf budget; the run doubles as a "module
	// is bbvet-clean" assertion from a second binary.
	record("analysis/bbvet-module", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pkgs, err := analysis.LoadModule(".")
			if err != nil {
				b.Fatal(err)
			}
			if findings := analysis.Run(pkgs, analysis.Rules()); len(findings) > 0 {
				b.Fatalf("module not bbvet-clean: %d finding(s)", len(findings))
			}
		}
	})

	// --- 1000Genomes single run: the case-study configuration, full size.
	wf := genomes.MustNew(genomes.Params{Chromosomes: genomes.DefaultChromosomes})
	cfg, ok := platform.Presets(8)["cori-private"]
	if !ok {
		return nil, fmt.Errorf("platform preset cori-private missing")
	}
	record("genomes/single-run", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.MustNewSimulator(cfg).Run(wf, core.RunOptions{
				PrePlaceInputs: true, StagedFraction: 0.5,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})

	// --- adaptation layer on/off: the same pressured-BB SWarp run with the
	// degradation engine disabled (overflow falls back to the PFS) vs.
	// enabled (pressure spill, replication, and admission control armed).
	// The pair prices the adaptation machinery's overhead per run.
	adWf := swarp.MustNew(swarp.Params{Pipelines: 4, CoresPerTask: 8})
	adCfg, ok := platform.Presets(2)["cori-private"]
	if !ok {
		return nil, fmt.Errorf("platform preset cori-private missing")
	}
	adCfg.BB.Capacity = units.Bytes(float64(placement.AllBB(adWf).BBBytes(adWf)) * 0.6)
	adaptRun := func(pol adapt.Policy) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.MustNewSimulator(adCfg).Run(adWf, core.RunOptions{
					Placement: placement.AllBB(adWf), BBFallback: true, Adapt: pol,
				}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	record("adapt/swarp-tight-off", adaptRun(adapt.Policy{}))
	record("adapt/swarp-tight-on", adaptRun(adapt.Policy{
		SpillHighWater: 0.7, SpillLowWater: 0.35,
		ReplicateOnFault: true, DegradedFallback: true,
	}))

	// --- scale ceiling: generated WfBench-style montage workflows with a
	// counting trace and scratch-lifecycle management — the configuration
	// whose acceptance bar is "a million tasks in under a minute". Each
	// entry includes workflow generation, so the ledger prices the whole
	// `bbsim -gen` path, not just the kernel.
	scaleRun := func(tasks int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				swf, err := workloads.Scale(workloads.ScaleSpec{Topology: "montage", Tasks: tasks})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.MustNewSimulator(cfg).Run(swf, scaleRunOptions()); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	record("scale/100k-tasks", scaleRun(100_000))
	record("scale/1M-tasks", scaleRun(1_000_000))

	// --- bytes-retained probe: live heap held by a finished run's Result
	// with a retaining vs. a counting trace, on the 100k-task workflow. The
	// ratio is the memory argument for trace sinks: counting must retain a
	// small fraction of what the full event log costs.
	retBytes, err := retainedBytes(cfg, nil)
	if err != nil {
		return nil, err
	}
	cntBytes, err := retainedBytes(cfg, trace.Discard)
	if err != nil {
		return nil, err
	}
	snap.TraceBytesRetained, snap.TraceBytesCounting = retBytes, cntBytes
	fmt.Fprintf(os.Stderr, "bbbench: %-32s %12d bytes retained / %d counting\n",
		"trace/100k-retained-bytes", snap.TraceBytesRetained, snap.TraceBytesCounting)
	if snap.TraceBytesCounting*5 >= snap.TraceBytesRetained {
		return nil, fmt.Errorf("counting mode retains %d bytes, more than 1/5 of retained mode's %d — the O(active tasks) contract is broken",
			snap.TraceBytesCounting, snap.TraceBytesRetained)
	}

	// --- simulation service: the bbsimd evaluation path cold vs. cached.
	// The pair prices the result cache's value proposition: a cold run pays
	// the full kernel, a hit pays one map lookup plus a byte-slice hand-off.
	// The hit entry's allocs/op doubles as a contract that serving a cached
	// result never re-encodes.
	svcReq := service.SeededRequest(7)
	svcHash, err := svcReq.CanonicalHash()
	if err != nil {
		return nil, fmt.Errorf("service request hash: %w", err)
	}
	record("service/cold-run", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := service.Execute(&svcReq); err != nil {
				b.Fatal(err)
			}
		}
	})
	svcCache := service.NewCache(16, nil)
	if _, _, err := svcCache.GetOrFill(context.Background(), svcHash, func() ([]byte, error) {
		return service.Execute(&svcReq)
	}); err != nil {
		return nil, fmt.Errorf("service cache warm-up: %w", err)
	}
	record("service/cache-hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, hit, err := svcCache.GetOrFill(context.Background(), svcHash, func() ([]byte, error) {
				return nil, fmt.Errorf("cache miss on a warmed key")
			})
			if err != nil || !hit || len(data) == 0 {
				b.Fatalf("warmed key not served from cache (hit=%v err=%v)", hit, err)
			}
		}
	})

	// --- campaign wall-clock: the fig13 Quick sweep at -j 1 vs -j max.
	fig13, ok := experiments.Find("fig13")
	if !ok {
		return nil, fmt.Errorf("experiment fig13 missing")
	}
	campaign := func(jobs int) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fig13.Run(experiments.Options{Quick: true, Seed: 1, Jobs: jobs}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	serial := record("campaign/fig13-quick-j1", campaign(1))
	// "jmax" rather than the numeric count: the name must be stable across
	// machines for the compare mode; the actual count is the "jobs" field.
	parallel := record("campaign/fig13-quick-jmax", campaign(snap.Jobs))
	if parallel.NsPerOp() > 0 {
		snap.CampaignSpeedup = float64(serial.NsPerOp()) / float64(parallel.NsPerOp())
	}

	// --- accuracy guardrail: Fig. 10 average errors (deterministic).
	fig10, ok := experiments.Find("fig10")
	if !ok {
		return nil, fmt.Errorf("experiment fig10 missing")
	}
	tables, err := fig10.Run(experiments.Options{Quick: true, Seed: 1})
	if err != nil {
		return nil, fmt.Errorf("fig10 accuracy run: %w", err)
	}
	for _, t := range tables {
		pct, ok := avgErr(t.Notes)
		if !ok {
			return nil, fmt.Errorf("table %s: no \"average error\" note to record", t.ID)
		}
		snap.Accuracy = append(snap.Accuracy, Accuracy{Table: t.ID, AvgErrPct: pct})
		fmt.Fprintf(os.Stderr, "bbbench: %-32s %11.1f%% avg err\n", t.ID, pct)
	}

	// --- allocation probe: the tentpole's zero-steady-state contract.
	snap.FlowRecomputeAllocsPerOp = flow.RecomputeAllocsPerRun()
	fmt.Fprintf(os.Stderr, "bbbench: flow recompute steady state    %8.1f allocs/op\n",
		snap.FlowRecomputeAllocsPerOp)
	return snap, nil
}

// scaleRunOptions is the scale-run configuration: counting trace plus
// scratch-lifecycle management (evict after last read, PFS fallback), which
// keeps both trace memory and BB occupancy O(active tasks).
func scaleRunOptions() core.RunOptions {
	return core.RunOptions{
		StagedFraction: 0.5, IntermediatesToBB: true, PrePlaceInputs: true,
		EvictAfterLastRead: true, BBFallback: true, TraceSink: trace.Discard,
	}
}

// retainedBytes runs the 100k-task montage workflow with the given trace
// sink (nil retains) and measures the live heap still reachable from its
// Result after a GC.
func retainedBytes(cfg platform.Config, sink trace.Sink) (int64, error) {
	wf, err := workloads.Scale(workloads.ScaleSpec{Topology: "montage", Tasks: 100_000})
	if err != nil {
		return 0, err
	}
	opts := scaleRunOptions()
	opts.TraceSink = sink
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := core.MustNewSimulator(cfg).Run(wf, opts)
	if err != nil {
		return 0, err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	delta := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	// Both snapshots must see the same live workflow, or the generator's
	// garbage drowns the signal and the delta goes negative.
	runtime.KeepAlive(wf)
	runtime.KeepAlive(res)
	return delta, nil
}

var avgErrRE = regexp.MustCompile(`average error: ([0-9.]+)%`)

// avgErr pulls the headline percentage out of a table's notes.
func avgErr(notes []string) (float64, bool) {
	for _, note := range notes {
		if m := avgErrRE.FindStringSubmatch(note); m != nil {
			v, err := strconv.ParseFloat(m[1], 64)
			if err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

// writeSnapshot marshals snap to path, or to the next free BENCH_<n>.json
// when path is empty.
func writeSnapshot(snap *Snapshot, path string) error {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	if path == "" {
		path = nextLedgerPath(".")
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bbbench: wrote %s\n", path)
	return nil
}

var ledgerRE = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// nextLedgerPath picks BENCH_<n>.json with the smallest n not yet present.
func nextLedgerPath(dir string) string {
	next := 1
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if m := ledgerRE.FindStringSubmatch(e.Name()); m != nil {
				if n, err := strconv.Atoi(m[1]); err == nil && n >= next {
					next = n + 1
				}
			}
		}
	}
	return filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", next))
}

// compare gates the fresh snapshot against a committed baseline: any suite
// entry whose ns/op grew by more than tol fails, as does a nonzero
// allocation probe and any accuracy drift (accuracy is deterministic, so
// the tolerance there is zero).
func compare(snap *Snapshot, baselinePath string, tol float64) ([]string, error) {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return nil, err
	}
	var base Snapshot
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", baselinePath, err)
	}
	baseBench := make(map[string]Bench, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseBench[b.Name] = b
	}
	var failures []string
	for _, b := range snap.Benchmarks {
		old, ok := baseBench[b.Name]
		if !ok || old.NsPerOp <= 0 {
			continue // new entry, or unusable baseline: nothing to gate on
		}
		if growth := b.NsPerOp/old.NsPerOp - 1; growth > tol {
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (+%.0f%%, tolerance %.0f%%)",
				b.Name, b.NsPerOp, old.NsPerOp, 100*growth, 100*tol))
		}
	}
	if snap.FlowRecomputeAllocsPerOp > 0 {
		failures = append(failures, fmt.Sprintf(
			"flow recompute allocates %.1f times per op in steady state; the contract is 0",
			snap.FlowRecomputeAllocsPerOp))
	}
	baseAcc := make(map[string]float64, len(base.Accuracy))
	for _, a := range base.Accuracy {
		baseAcc[a.Table] = a.AvgErrPct
	}
	for _, a := range snap.Accuracy {
		old, ok := baseAcc[a.Table]
		if !ok {
			continue
		}
		if diff := a.AvgErrPct - old; diff > 1e-9 || diff < -1e-9 {
			failures = append(failures, fmt.Sprintf(
				"%s: avg err %.4f%% vs baseline %.4f%% — simulated results are deterministic, this is a correctness change",
				a.Table, a.AvgErrPct, old))
		}
	}
	return failures, nil
}
