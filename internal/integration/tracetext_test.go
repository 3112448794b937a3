package integration

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"bbwfsim/internal/adapt"
	"bbwfsim/internal/ckpt"
	"bbwfsim/internal/core"
	"bbwfsim/internal/exec"
	"bbwfsim/internal/faults"
	"bbwfsim/internal/genomes"
	"bbwfsim/internal/placement"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/sched"
	"bbwfsim/internal/swarp"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
	"bbwfsim/internal/workloads"
)

// traceTextRun is one seeded run whose trace text the golden pins.
type traceTextRun struct {
	name string
	run  func(t *testing.T) *trace.Trace
}

// traceTextRuns are the runs TestTraceTextGolden pins. Together they emit
// every event kind and every detail form (traceTextForms).
func traceTextRuns() []traceTextRun {
	return []traceTextRun{
		{"staging", runStaging},
		{"relocation", runRelocation},
		{"faults", runFaultCampaign},
		{"ckpt", runCkptCampaign},
		{"adapt", runAdaptCampaign},
		{"sched", runSchedCampaign},
	}
}

// runStaging drives stage-in and stage-out through a burst buffer too
// small for the staged set, so stage-ins and writes fall back to the PFS.
func runStaging(t *testing.T) *trace.Trace {
	wf := workflow.New("staging")
	var staged, results []string
	for i := 0; i < 6; i++ {
		in, out := "in"+string(rune('a'+i)), "out"+string(rune('a'+i))
		wf.MustAddFile(in, 200*units.MB)
		wf.MustAddFile(out, 100*units.MB)
		staged = append(staged, in)
		results = append(results, out)
	}
	wf.MustAddTask(workflow.TaskSpec{ID: "stage_in", Kind: workflow.KindStageIn, Outputs: staged})
	for i := 0; i < 6; i++ {
		wf.MustAddTask(workflow.TaskSpec{
			ID: "work" + string(rune('a'+i)), Work: 20e9, Cores: 4,
			Inputs: []string{staged[i]}, Outputs: []string{results[i]},
		})
	}
	wf.MustAddTask(workflow.TaskSpec{ID: "stage_out", Kind: workflow.KindStageOut, Inputs: results})
	cfg := platform.Cori(1, platform.BBPrivate)
	cfg.CoresPerNode = 8
	cfg.BB.Capacity = 900 * units.MB
	res, err := core.MustNewSimulator(cfg).Run(wf, core.RunOptions{
		Placement: placement.AllBB(wf), BBFallback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

// runRelocation enforces the private-mode visibility rule on two nodes:
// a reader on another node than a replica's creator has it relocated
// through the PFS first.
func runRelocation(t *testing.T) *trace.Trace {
	res, err := core.MustNewSimulator(platform.Cori(2, platform.BBPrivate)).Run(
		swarp.MustNew(swarp.Params{Pipelines: 2, CoresPerTask: 8}), core.RunOptions{
			StagedFraction: 1, IntermediatesToBB: true, EnforcePrivateVisibility: true,
			NodePolicy: exec.NodeLeastLoaded,
		})
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

// runFaultCampaign is the 1000Genomes case study under every fault
// process at once: crashes, node failures with repair and lineage
// re-execution, BB rejections, and BB and PFS degradation.
func runFaultCampaign(t *testing.T) *trace.Trace {
	inj, err := faults.New(faults.Config{
		Seed:        44,
		TaskCrash:   &faults.CrashProcess{Arrival: faults.Exp(80), Budget: 8},
		NodeFailure: &faults.NodeProcess{Arrival: faults.Exp(200), MTTR: 40, Budget: 2},
		BBReject:    &faults.RejectPolicy{Prob: 0.1},
		BBDegrade:   &faults.DegradeProcess{Arrival: faults.Exp(100), Duration: 20, Factor: 0.3},
		PFSDegrade:  &faults.DegradeProcess{Arrival: faults.Exp(150), Duration: 15, Factor: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.MustNewSimulator(platform.Cori(4, platform.BBPrivate)).Run(
		genomes.MustNew(genomes.Params{Chromosomes: 4}), core.RunOptions{
			PrePlaceInputs: true, StagedFraction: 1, IntermediatesToBB: true,
			Faults: inj,
			Retry: exec.RetryPolicy{
				MaxRetries: 100, Backoff: exec.BackoffExponential,
				BaseDelay: 2, MaxDelay: 60, Jitter: 0.25, Seed: 13,
			},
			BBFallback: true,
		})
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

// runCkptCampaign checkpoints SWarp tasks to the burst buffer with
// draining, under crashes and node failures that destroy snapshots.
func runCkptCampaign(t *testing.T) *trace.Trace {
	inj, err := faults.New(faults.Config{
		Seed:        7,
		TaskCrash:   &faults.CrashProcess{Arrival: faults.Exp(20), Budget: 6},
		NodeFailure: &faults.NodeProcess{Arrival: faults.Exp(30), MTTR: 10, Budget: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.MustNewSimulator(platform.Summit(2)).Run(
		swarp.MustNew(swarp.Params{Pipelines: 4, CoresPerTask: 8}), core.RunOptions{
			StagedFraction: 1, IntermediatesToBB: true, BBFallback: true,
			Faults: inj,
			Retry: exec.RetryPolicy{
				MaxRetries: 60, Backoff: exec.BackoffExponential,
				BaseDelay: 2, MaxDelay: 120, Jitter: 0.25, Seed: 3,
			},
			Checkpoint: ckpt.Policy{
				Interval: 2, Target: ckpt.TargetBB, Drain: true, DrainDelay: 1,
				MinSize: 64 * units.MB,
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

// runAdaptCampaign runs SWarp under every adaptation reaction: BB-pressure
// spill, replication after a node failure, and degradation fallback.
func runAdaptCampaign(t *testing.T) *trace.Trace {
	inj, err := faults.New(faults.Config{
		Seed:        7,
		NodeFailure: &faults.NodeProcess{Arrival: faults.Exp(40), MTTR: 20, Budget: 1},
		BBDegrade:   &faults.DegradeProcess{Arrival: faults.Exp(60), Duration: 25, Factor: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := platform.Cori(2, platform.BBPrivate)
	cfg.BB.Capacity = units.GB
	res, err := core.MustNewSimulator(cfg).Run(
		swarp.MustNew(swarp.Params{Pipelines: 4, CoresPerTask: 8}), core.RunOptions{
			StagedFraction: 1, IntermediatesToBB: true, BBFallback: true,
			Faults: inj,
			Retry:  exec.RetryPolicy{MaxRetries: 20},
			Adapt: adapt.Policy{
				SpillHighWater: 0.7, SpillLowWater: 0.35, ReplicateOnFault: true, DegradedFallback: true,
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

// runSchedCampaign is an EASY-backfill campaign under node failures, with
// one job wider than the cluster, which admission rejects.
func runSchedCampaign(t *testing.T) *trace.Trace {
	jobs, err := workloads.Campaign(workloads.CampaignSpec{
		Jobs: 60, Seed: 42, ArrivalMean: 20, RuntimeMean: 300,
		MaxNodes: 8, BBMean: 2 * units.GiB,
	})
	if err != nil {
		t.Fatal(err)
	}
	wide := jobs[len(jobs)/2]
	wide.ID += "-wide"
	wide.Nodes = 64
	jobs = append(jobs[:len(jobs)/2+1:len(jobs)/2+1], jobs[len(jobs)/2:]...)
	jobs[len(jobs)/2] = wide
	res, err := sched.Run(sched.Config{
		Cluster: sched.Cluster{
			Nodes:        16,
			BBCapacity:   64 * units.GiB,
			BBBandwidth:  units.Bandwidth(2 * units.GiB),
			PFSBandwidth: units.Bandwidth(512 * units.MiB),
		},
		Policy: sched.PolicyEASY,
		Jobs:   jobs,
		Faults: &sched.FaultPlan{
			Seed: 99,
			Node: &faults.NodeProcess{Arrival: faults.Exp(1500), MTTR: 600, Budget: 5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

// traceTextForms are the detail forms the golden runs must emit, one
// pattern per form, keyed by event kind.
var traceTextForms = []struct {
	kind string
	re   *regexp.Regexp
}{
	{"task-ready", regexp.MustCompile(`^$`)},
	{"task-start", regexp.MustCompile(`^[^ @>]+$`)},
	{"read-start", regexp.MustCompile(`^[^ @]+@[^ >]+$`)},
	{"read-end", regexp.MustCompile(`^[^ @>]+$`)},
	{"compute-start", regexp.MustCompile(`^$`)},
	{"compute-end", regexp.MustCompile(`^$`)},
	{"write-start", regexp.MustCompile(`^[^ @]+@[^ >]+$`)},
	{"write-end", regexp.MustCompile(`^[^ @>]+$`)},
	{"stage-start", regexp.MustCompile(`^[^ @]+->[^ >]+$`)},    // stage-in
	{"stage-start", regexp.MustCompile(`^[^ @]+@[^ ]+->pfs$`)}, // stage-out, relocation
	{"stage-end", regexp.MustCompile(`^[^ @>]+$`)},             // stage-in
	{"stage-end", regexp.MustCompile(`^[^ @]+@pfs$`)},          // stage-out, relocation
	{"task-end", regexp.MustCompile(`^$`)},
	{"task-fail", regexp.MustCompile(`^injected crash$`)},
	{"task-fail", regexp.MustCompile(`^node [^ ]+ failed$`)},
	{"task-fail", regexp.MustCompile(`^lost input from [^ ]+$`)},
	{"task-fail", regexp.MustCompile(`^lost input [^ ]+$`)},
	{"task-retry", regexp.MustCompile(`^attempt [0-9]+$`)},
	{"task-retry", regexp.MustCompile(`^re-execution: output replica lost$`)},
	{"node-fail", regexp.MustCompile(`^[^ ]+: injected failure$`)},
	{"node-fail", regexp.MustCompile(`^node[0-9]{3}$`)},
	{"node-repair", regexp.MustCompile(`^[^ ]+$`)},
	{"node-repair", regexp.MustCompile(`^node[0-9]{3}$`)},
	{"bb-reject", regexp.MustCompile(`^[^ @]+@[^ >]+$`)},
	{"fallback", regexp.MustCompile(`^[^ @]+->pfs$`)},
	{"fallback", regexp.MustCompile(`^[^ @]+->pfs \(bb full\)$`)},
	{"degrade-start", regexp.MustCompile(`^[^ ]+ x[0-9.e+-]+ for [0-9.e+-]+s$`)},
	{"degrade-end", regexp.MustCompile(`^[^ ]+$`)},
	{"ckpt-begin", regexp.MustCompile(`^[^ @]+@[^ >]+$`)},
	{"ckpt-commit", regexp.MustCompile(`^[^ @]+@[^ ]+ p=[0-9.e+-]+$`)},
	{"ckpt-drain", regexp.MustCompile(`^[^ @]+@[^ ]+->pfs$`)},
	{"ckpt-lost", regexp.MustCompile(`^[^ @]+@[^ >]+$`)},
	{"restart-from", regexp.MustCompile(`^[^ @]+@[^ ]+ p=[0-9.e+-]+$`)},
	{"adapt-spill", regexp.MustCompile(`^[^ @]+@[^ >]+$`)},
	{"adapt-replicate", regexp.MustCompile(`^[^ @]+@[^ ]+->pfs$`)},
	{"adapt-fallback", regexp.MustCompile(`^[^ @]+@[^ >]+$`)},
	{"job-submit", regexp.MustCompile(`^nodes=[0-9]+ bb=[0-9]+ est=[0-9.e+]+$`)},
	{"job-reject", regexp.MustCompile(`^nodes=[0-9]+/[0-9]+ bb=[0-9]+/[0-9]+$`)},
	{"job-start", regexp.MustCompile(`^nodes=[0-9]+ bb=[0-9]+$`)},
	{"job-run", regexp.MustCompile(`^$`)},
	{"job-stage-out", regexp.MustCompile(`^$`)},
	{"job-end", regexp.MustCompile(`^$`)},
	{"job-fail", regexp.MustCompile(`^node[0-9]{3}$`)},
}

// traceTextDigests are the SHA-256 digests of one run's three trace
// outputs.
type traceTextDigests struct {
	Save, JSONL, CSV string
}

const traceTextGoldenPath = "testdata/trace_text.golden.json"

// TestTraceTextGolden pins the exact bytes of every trace output — the
// indented JSON Trace.Save writes, the JSONL sink and the CSV sink — for
// seeded runs that together emit every event kind and every detail form.
// It is the byte gate for anything that changes how events are recorded
// or rendered. Regenerate with -update-goldens.
func TestTraceTextGolden(t *testing.T) {
	got := map[string]traceTextDigests{}
	seen := map[string]bool{} // kind names
	matched := make([]bool, len(traceTextForms))
	arrows := 0
	for _, r := range traceTextRuns() {
		tr := r.run(t)
		path := filepath.Join(t.TempDir(), r.name+".json")
		if err := tr.Save(path); err != nil {
			t.Fatal(err)
		}
		saved, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var jsonl, csv bytes.Buffer
		js, cs := trace.NewJSONLSink(&jsonl), trace.NewCSVSink(&csv)
		for _, ev := range tr.Events() {
			js.Emit(ev)
			cs.Emit(ev)
		}
		if err := js.Close(); err != nil {
			t.Fatal(err)
		}
		if err := cs.Close(); err != nil {
			t.Fatal(err)
		}
		// encoding/json escapes '>' in every JSON output, so "->" appears
		// as "-\u003e"; the CSV carries it raw.
		for _, out := range [][]byte{saved, jsonl.Bytes()} {
			if bytes.Contains(out, []byte("->")) {
				t.Errorf("%s: JSON trace output carries an unescaped \"->\"", r.name)
			}
		}
		arrows += bytes.Count(jsonl.Bytes(), []byte(`-\u003e`))
		got[r.name] = traceTextDigests{Save: digest(saved), JSONL: digest(jsonl.Bytes()), CSV: digest(csv.Bytes())}
		for _, line := range strings.Split(strings.TrimSuffix(jsonl.String(), "\n"), "\n") {
			var ev struct{ Kind, Detail string }
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatal(err)
			}
			seen[ev.Kind] = true
			for i, f := range traceTextForms {
				if f.kind == ev.Kind && f.re.MatchString(ev.Detail) {
					matched[i] = true
				}
			}
		}
	}
	if arrows == 0 {
		t.Error(`no JSONL detail carries an escaped arrow "-\u003e"`)
	}
	for k := trace.TaskReady; k <= trace.JobFail; k++ {
		if !seen[k.String()] {
			t.Errorf("no run emits a %s event", k)
		}
	}
	for i, f := range traceTextForms {
		if !matched[i] {
			t.Errorf("no run emits a %s event with a detail matching %s", f.kind, f.re)
		}
	}
	if *updateGoldens {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(traceTextGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(traceTextGoldenPath)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update-goldens): %v", err)
	}
	var want map[string]traceTextDigests
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d runs, the test makes %d", traceTextGoldenPath, len(want), len(got))
	}
	for name, d := range got {
		if want[name] != d {
			t.Errorf("%s: trace output digests %+v, golden %+v", name, d, want[name])
		}
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
