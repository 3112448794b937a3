package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from fresh seed-1 runs")

// smokeSize runs every workload at about a hundredth of its benchmark size.
var smokeSize = size{
	name: "smoke", quick: true, expIDs: []string{"table1", "fig4"},
	coldRound: 20, warm: 8, schedJobs: 100,
}

// TestMain lets the test binary serve as the reference child, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(refEnv) == "1" {
		if err := serveReference(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "reference: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func goldens(t *testing.T) map[string]goldenRecord {
	t.Helper()
	var g map[string]goldenRecord
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		t.Fatalf("testdata/golden.json: %v", err)
	}
	return g
}

// runOnce runs a workload for its minimum number of rounds.
func runOnce(t *testing.T, workload string, sz size, traced bool, g map[string]goldenRecord) *report {
	t.Helper()
	rep, err := run(config{workload: workload, seed: 1, budget: 1, traced: traced, dir: t.TempDir(), size: sz, goldens: g})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return rep
}

// benchmarkFile is the part of ../BENCHMARK.json the tests compare with.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func emitted(rep *report) []string {
	var out []string
	for _, m := range rep.metrics {
		out = append(out, m.name+" "+m.unit)
	}
	sort.Strings(out)
	return out
}

func declared(ms []struct{ Name, Unit string }) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name+" "+m.Unit)
	}
	sort.Strings(out)
	return out
}

// TestWorkloadsEmitDeclaredMetrics runs every workload untraced and traced
// and checks that each emits exactly the metrics BENCHMARK.json declares,
// with their units, and passes its correctness checks.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range allWorkloads {
		ours = append(ours, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(ours) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
	g := goldens(t)
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			rep := runOnce(t, name, smokeSize, traced, g)
			want := declared(b.EndToEnd)
			if traced {
				want = declared(b.PerLayer)
			}
			if got := emitted(rep); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s traced=%v emits\n%v\nBENCHMARK.json declares\n%v", name, traced, got, want)
			}
			if !traced && (len(rep.refUnits) == 0 || !(rep.scale > 0) || math.IsInf(rep.scale, 0)) {
				t.Errorf("%s: reference gave %d units, scale %v", name, len(rep.refUnits), rep.scale)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", name, traced, rep.failed, rep.attempted, rep.failures)
			}
		}
	}
}

// TestTamperedGoldenFails checks that a golden that no longer matches the
// output counts as a failed check.
func TestTamperedGoldenFails(t *testing.T) {
	for _, w := range allWorkloads {
		g := goldens(t)
		k := goldenKey(w, smokeSize.name)
		rec, ok := g[k]
		if !ok {
			continue // checked against recomputation, not a golden
		}
		rec.SHA256 += "0"
		g[k] = rec
		if rep := runOnce(t, w.name, smokeSize, false, g); rep.failed == 0 {
			t.Errorf("%s: tampered golden %s passed", w.name, k)
		}
	}
}

// TestPaperGoldenIsCommittedResults pins paper-full's golden to the
// committed output of `bbexp -exp all -format csv`.
func TestPaperGoldenIsCommittedResults(t *testing.T) {
	data, err := os.ReadFile("../results/full_results.csv")
	if err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload("paper-full")
	if got, want := goldens(t)[goldenKey(w, fullSize.name)].SHA256, fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
		t.Errorf("paper-full golden %s, results/full_results.csv hashes to %s", got, want)
	}
}

func TestFoldTop(t *testing.T) {
	const out = `File: perfbench
Type: cpu
Duration: 2.01s, Total samples = 2s (99.50%)
Showing nodes accounting for 2s, 100% of 2s total
      flat  flat%   sum%        cum   cum%
     0.60s 30.00% 30.00%      0.90s 45.00%  bbwfsim/internal/sim.(*Engine).Run
     0.40s 20.00% 50.00%      0.40s 20.00%  encoding/json.(*decodeState).object
     0.20s 10.00% 60.00%      0.20s 10.00%  runtime.scanobject
     0.20s 10.00% 70.00%      0.20s 10.00%  net/http.(*conn).serve
     0.10s  5.00% 75.00%      0.10s  5.00%  bbwfsim/internal/sim.(*Engine).push (inline)
     0.10s  5.00% 80.00%      0.10s  5.00%  runtime.mallocgc
     0.10s  5.00% 85.00%      0.10s  5.00%  bbwfsim/internal/analysis.Run
     0.30s 15.00%   100%      0.30s 15.00%  main.main
`
	got := foldTop(out)
	want := map[string]float64{"cpu.sim": 35, "cpu.json": 20, "cpu.gc": 10, "cpu.http": 10}
	for _, c := range cpuCategories {
		if got["cpu."+c] != want["cpu."+c] {
			t.Errorf("cpu.%s = %v, want %v", c, got["cpu."+c], want["cpu."+c])
		}
	}
	if len(got) != len(cpuCategories) {
		t.Errorf("%d shares, want one per category (%d)", len(got), len(cpuCategories))
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "round", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 50, End: 90, Parent: 0},
		{Name: "b.child", Start: 60, End: 70, Parent: 2},
		{Name: "open", Start: 95, End: -1, Parent: 0},
	}
	if got, want := fmt.Sprint(selfTimes(spans)), fmt.Sprint([]int64{30, 30, 30, 10, 0}); got != want {
		t.Errorf("self times %s, want %s", got, want)
	}
}

// TestUpdateGoldens rewrites testdata/golden.json when run with -update.
func TestUpdateGoldens(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite testdata/golden.json")
	}
	g := map[string]goldenRecord{}
	for _, w := range allWorkloads {
		for _, sz := range []size{fullSize, smokeSize} {
			if rep := runOnce(t, w.name, sz, false, nil); rep.rec != nil {
				g[goldenKey(w, sz.name)] = *rep.rec
			}
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/golden.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
