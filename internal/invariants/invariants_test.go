package invariants

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"slices"
	"strings"
	"testing"

	"bbwfsim/internal/core"
	"bbwfsim/internal/faults"
	"bbwfsim/internal/metrics"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/workflow"
)

// The harnesses' snapshot digests: one SHA-256 over every run's
// res.Metrics.JSON(), fault-free and faulty, in run order. They pin the
// snapshot bytes of every harness run, including the task, checkpoint and
// adaptation families no golden covers; a change that moves any of them
// fails here.
const (
	propertyDigest = "65b79ec2344135880030d01a1f89c38033e70188c96505fc88bd0978c3491569"
	ckptDigest     = "b7f8728dbffce0f4473a6fe19c415d9a3d53536ced46d3ec05a2ccb29d6e5288"
	adaptDigest    = "0e8b45b25fb5b20677d2ffd8919b89ee845b3daaaa02f69dfea728c196b16859"
)

// The harnesses' record digests: one SHA-256 over every run's task
// records (their JSON) and the float bits of its per-name summaries,
// fault-free and faulty, in run order. They pin the records the trace
// builds from a run's events on the faulty, checkpointed and adaptive
// seeds.
const (
	propertyRecordsDigest = "8a3ce7b0eb8a2def9aebbf820ee4e3080786f791316cfb8fb46213ce29b3aaae"
	ckptRecordsDigest     = "f294ac7081e7b2d47612ca8502d556e8285103c9e4e098469554ff8195f4a2cc"
	adaptRecordsDigest    = "28ca6204bf85077920d226d2e5669ce3fda6dc341878dcb66f7d72949954c92a"
)

// hashRecords adds the result's task records and summaries to h.
func hashRecords(t *testing.T, h hash.Hash, res *core.Result) {
	t.Helper()
	b, err := json.Marshal(res.Trace.Records())
	if err != nil {
		t.Fatalf("records JSON: %v", err)
	}
	h.Write(b)
	for _, s := range res.Summaries {
		h.Write([]byte(s.Name))
		for _, x := range []float64{float64(s.Count), s.MeanExec, s.MaxExec, s.MeanIO,
			s.MeanCompute, s.MeanWait, float64(s.BytesRead), float64(s.BytesWritten)} {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
		}
	}
}

// hashSnapshot adds the result's snapshot bytes to h.
func hashSnapshot(t *testing.T, h hash.Hash, res *core.Result) {
	t.Helper()
	b, err := res.Metrics.JSON()
	if err != nil {
		t.Fatalf("snapshot JSON: %v", err)
	}
	h.Write(b)
}

// checkDigest compares h's digest with the pinned one.
func checkDigest(t *testing.T, h hash.Hash, want string) {
	t.Helper()
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("snapshot digest = %s, want %s: a harness run's metrics bytes changed", got, want)
	}
}

// checkRecordsDigest compares h's digest with the pinned one.
func checkRecordsDigest(t *testing.T, h hash.Hash, want string) {
	t.Helper()
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("records digest = %s, want %s: a harness run's task records or summaries changed", got, want)
	}
}

// TestPropertyHarness drives 220 seeded random cases — workflow structure ×
// file regime × platform profile × run options, ~40% with a calibrated
// fault campaign on top — through the full simulator and checks every
// cross-layer invariant on each result. Every 20th case is additionally
// replayed and must reproduce its observability snapshot byte-for-byte.
func TestPropertyHarness(t *testing.T) {
	h, hr := sha256.New(), sha256.New()
	const cases = 220
	var withFaults, constrained int
	for seed := int64(1); seed <= cases; seed++ {
		c, err := RandomCase(seed)
		if err != nil {
			t.Fatalf("RandomCase(%d): %v", seed, err)
		}
		if c.CrashDiv > 0 {
			withFaults++
		}
		if c.Platform.BB.Capacity > 0 {
			constrained++
		}

		run := func(faulty bool, baseline float64) *core.Result {
			t.Helper()
			ro := c.Opts
			if faulty {
				ro, err = c.FaultOptions(baseline)
				if err != nil {
					t.Fatalf("%s: FaultOptions: %v", c.Name, err)
				}
			}
			sim, err := core.NewSimulator(c.Platform)
			if err != nil {
				t.Fatalf("%s: NewSimulator: %v", c.Name, err)
			}
			res, err := sim.Run(c.Workflow, ro)
			if err != nil {
				t.Fatalf("%s (faulty=%v): Run: %v", c.Name, faulty, err)
			}
			for _, v := range Check(c.Platform, c.Workflow, ro, res) {
				t.Errorf("%s (faulty=%v): %s", c.Name, faulty, v)
			}
			hashSnapshot(t, h, res)
			hashRecords(t, hr, res)
			return res
		}

		res := run(false, 0)
		if c.CrashDiv > 0 {
			run(true, res.Makespan)
		}

		if seed%20 == 0 {
			replay := run(false, 0)
			a, err := res.Metrics.JSON()
			if err != nil {
				t.Fatalf("%s: JSON: %v", c.Name, err)
			}
			b, err := replay.Metrics.JSON()
			if err != nil {
				t.Fatalf("%s: JSON: %v", c.Name, err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("%s: replayed snapshot differs from original", c.Name)
			}
			if c.CrashDiv > 0 {
				fr := run(true, res.Makespan)
				fa, _ := fr.Metrics.JSON()
				fb, _ := run(true, res.Makespan).Metrics.JSON()
				if !bytes.Equal(fa, fb) {
					t.Errorf("%s: replayed fault campaign snapshot differs", c.Name)
				}
			}
		}
	}
	// Guard against generator drift silently hollowing out the harness.
	if withFaults < 30 {
		t.Errorf("only %d/%d cases drew a fault regime; generator coverage degraded", withFaults, cases)
	}
	if constrained < 30 {
		t.Errorf("only %d/%d cases drew a constrained BB; generator coverage degraded", constrained, cases)
	}
	checkDigest(t, h, propertyDigest)
	checkRecordsDigest(t, hr, propertyRecordsDigest)
}

// TestCheckpointPropertyHarness drives 200 seeded checkpointed fault
// configs — the RandomCase draws with a checkpoint policy forced on and a
// calibrated fault campaign guaranteed — through the full simulator and
// checks every cross-layer invariant, including the checkpoint replay
// (restart durability, recovered ≤ aborted, ckpt ⊆ storage traffic).
func TestCheckpointPropertyHarness(t *testing.T) {
	h, hr := sha256.New(), sha256.New()
	const cases = 200
	var commits, drains, losses, restarts int
	for seed := int64(1); seed <= cases; seed++ {
		c, err := CkptCase(seed)
		if err != nil {
			t.Fatalf("CkptCase(%d): %v", seed, err)
		}
		run := func(faulty bool, baseline float64) *core.Result {
			t.Helper()
			ro := c.Opts
			if faulty {
				ro, err = c.FaultOptions(baseline)
				if err != nil {
					t.Fatalf("%s: FaultOptions: %v", c.Name, err)
				}
			}
			sim, err := core.NewSimulator(c.Platform)
			if err != nil {
				t.Fatalf("%s: NewSimulator: %v", c.Name, err)
			}
			res, err := sim.Run(c.Workflow, ro)
			if err != nil {
				t.Fatalf("%s (faulty=%v): Run: %v", c.Name, faulty, err)
			}
			for _, v := range Check(c.Platform, c.Workflow, ro, res) {
				t.Errorf("%s (faulty=%v): %s", c.Name, faulty, v)
			}
			hashSnapshot(t, h, res)
			hashRecords(t, hr, res)
			return res
		}
		res := run(false, 0)
		fr := run(true, res.Makespan)
		commits += fr.Faults.CkptCommits
		drains += fr.Faults.CkptDrains
		losses += fr.Faults.CkptLosses
		restarts += fr.Faults.CkptRestarts
	}
	// Guard against the generator drifting into configurations that never
	// exercise the recovery machinery.
	if commits < 200 {
		t.Errorf("only %d checkpoint commits across %d fault campaigns; harness coverage degraded", commits, cases)
	}
	if drains < 20 {
		t.Errorf("only %d checkpoint drains; harness coverage degraded", drains)
	}
	if losses < 5 {
		t.Errorf("only %d checkpoint losses; harness coverage degraded", losses)
	}
	if restarts < 20 {
		t.Errorf("only %d checkpoint restarts; harness coverage degraded", restarts)
	}
	checkDigest(t, h, ckptDigest)
	checkRecordsDigest(t, hr, ckptRecordsDigest)
}

// TestAdaptPropertyHarness drives 150 seeded adaptive fault configs — the
// RandomCase draws with an adapt policy forced on, the burst buffer
// squeezed, and a calibrated fault campaign guaranteed — through the full
// simulator and checks every cross-layer invariant, including the adapt
// byte bounds (spill/replication traffic ⊆ storage traffic) and the
// trace-pinned adapt tallies.
func TestAdaptPropertyHarness(t *testing.T) {
	h, hr := sha256.New(), sha256.New()
	const cases = 150
	var spills, replications, fallbacks int
	for seed := int64(1); seed <= cases; seed++ {
		c, err := AdaptCase(seed)
		if err != nil {
			t.Fatalf("AdaptCase(%d): %v", seed, err)
		}
		run := func(faulty bool, baseline float64) *core.Result {
			t.Helper()
			ro := c.Opts
			if faulty {
				ro, err = c.FaultOptions(baseline)
				if err != nil {
					t.Fatalf("%s: FaultOptions: %v", c.Name, err)
				}
			}
			sim, err := core.NewSimulator(c.Platform)
			if err != nil {
				t.Fatalf("%s: NewSimulator: %v", c.Name, err)
			}
			res, err := sim.Run(c.Workflow, ro)
			if err != nil {
				t.Fatalf("%s (faulty=%v): Run: %v", c.Name, faulty, err)
			}
			for _, v := range Check(c.Platform, c.Workflow, ro, res) {
				t.Errorf("%s (faulty=%v): %s", c.Name, faulty, v)
			}
			hashSnapshot(t, h, res)
			hashRecords(t, hr, res)
			return res
		}
		res := run(false, 0)
		spills += res.Faults.AdaptSpills
		fr := run(true, res.Makespan)
		spills += fr.Faults.AdaptSpills
		replications += fr.Faults.AdaptReplications
		fallbacks += fr.Faults.AdaptFallbacks
	}
	// Guard against the generator drifting into configurations that never
	// exercise the adaptation machinery.
	if spills < 50 {
		t.Errorf("only %d adapt spills across %d cases; harness coverage degraded", spills, cases)
	}
	if replications < 20 {
		t.Errorf("only %d adapt replications; harness coverage degraded", replications)
	}
	if fallbacks < 10 {
		t.Errorf("only %d adapt fallbacks; harness coverage degraded", fallbacks)
	}
	checkDigest(t, h, adaptDigest)
	checkRecordsDigest(t, hr, adaptRecordsDigest)
}

// TestMetricsSinkIndependent pins that the metrics fold is teed beside
// whatever sink a run has: for the first 20 checkpoint and 20 adapt
// cases, fault-free and faulty, the snapshot bytes are the same with no
// sink, a retained trace, a JSONL and a CSV stream, and the retained
// events and the streamed bytes equal those of the same run without
// metrics.
func TestMetricsSinkIndependent(t *testing.T) {
	gens := []struct {
		name string
		gen  func(int64) (Case, error)
	}{{"ckpt", CkptCase}, {"adapt", AdaptCase}}
	for _, g := range gens {
		for seed := int64(1); seed <= 20; seed++ {
			c, err := g.gen(seed)
			if err != nil {
				t.Fatalf("%s case %d: %v", g.name, seed, err)
			}
			baseline := 0.0
			for _, faulty := range []bool{false, true} {
				label := fmt.Sprintf("%s (faulty=%v)", c.Name, faulty)
				run := func(sink trace.Sink, withMetrics bool) *core.Result {
					t.Helper()
					ro := c.Opts
					if faulty {
						if ro, err = c.FaultOptions(baseline); err != nil {
							t.Fatalf("%s: FaultOptions: %v", label, err)
						}
					}
					ro.TraceSink, ro.Metrics = sink, withMetrics
					sim, err := core.NewSimulator(c.Platform)
					if err != nil {
						t.Fatalf("%s: NewSimulator: %v", label, err)
					}
					res, err := sim.Run(c.Workflow, ro)
					if err != nil {
						t.Fatalf("%s: Run: %v", label, err)
					}
					return res
				}
				snapshot := func(res *core.Result) []byte {
					t.Helper()
					b, err := res.Metrics.JSON()
					if err != nil {
						t.Fatalf("%s: JSON: %v", label, err)
					}
					return b
				}
				stream := func(withMetrics bool) (jsonl, csv []byte, snaps [][]byte) {
					t.Helper()
					var jb, cb bytes.Buffer
					js, cs := trace.NewJSONLSink(&jb), trace.NewCSVSink(&cb)
					jr, cr := run(js, withMetrics), run(cs, withMetrics)
					if err := js.Close(); err != nil {
						t.Fatalf("%s: JSONL: %v", label, err)
					}
					if err := cs.Close(); err != nil {
						t.Fatalf("%s: CSV: %v", label, err)
					}
					if withMetrics {
						snaps = [][]byte{snapshot(jr), snapshot(cr)}
					}
					return jb.Bytes(), cb.Bytes(), snaps
				}

				retained := run(trace.Retain, true)
				if !faulty {
					baseline = retained.Makespan
				}
				want := snapshot(retained)
				jsonl, csv, streamed := stream(true)
				for i, got := range append([][]byte{snapshot(run(nil, true))}, streamed...) {
					if !bytes.Equal(got, want) {
						t.Errorf("%s: snapshot with sink %s differs from the retained run's",
							label, []string{"nil", "JSONL", "CSV"}[i])
					}
				}

				plain := run(trace.Retain, false)
				if !slices.Equal(plain.Trace.Events(), retained.Trace.Events()) {
					t.Errorf("%s: retained events differ with metrics on", label)
				}
				plainJSONL, plainCSV, _ := stream(false)
				if !bytes.Equal(jsonl, plainJSONL) {
					t.Errorf("%s: JSONL bytes differ with metrics on", label)
				}
				if !bytes.Equal(csv, plainCSV) {
					t.Errorf("%s: CSV bytes differ with metrics on", label)
				}
			}
		}
	}
}

// TestCheckDetectsTampering makes sure Check is a tripwire, not a
// tautology: corrupting any of the quantities it validates must produce a
// violation.
func TestCheckDetectsTampering(t *testing.T) {
	c, err := RandomCase(7)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := core.NewSimulator(c.Platform)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(c.Workflow, c.Opts)
	if err != nil {
		t.Fatal(err)
	}
	if v := Check(c.Platform, c.Workflow, c.Opts, res); len(v) != 0 {
		t.Fatalf("clean run reported violations: %v", v)
	}

	tamper := func(name string, mutate func()) {
		t.Helper()
		mutate()
		if v := Check(c.Platform, c.Workflow, c.Opts, res); len(v) == 0 {
			t.Errorf("%s: tampering went undetected", name)
		}
	}
	findCounter := func(family string) *metrics.Sample {
		t.Helper()
		for i := range res.Metrics.Counters {
			if res.Metrics.Counters[i].Family == family {
				return &res.Metrics.Counters[i]
			}
		}
		t.Fatalf("snapshot has no %s counter", family)
		return nil
	}

	completed := findCounter(metrics.TasksCompletedTotal)
	orig := completed.Value
	tamper("inflated tasks_completed_total", func() { completed.Value += 1 })
	completed.Value = orig

	phase := findCounter(metrics.TaskPhaseSecondsTotal)
	orig = phase.Value
	tamper("skewed task_phase_seconds_total", func() { phase.Value += 0.125 })
	phase.Value = orig

	events := findCounter(metrics.SimEventsTotal)
	orig = events.Value
	tamper("dropped sim_events_total", func() { events.Value -= 1 })
	events.Value = orig

	origMakespan := res.Makespan
	tamper("shifted makespan", func() { res.Makespan *= 1.5 })
	res.Makespan = origMakespan

	// Move one compute task's compute-start: the phases still telescope
	// to the span (invariants 4 and 6), only the compute time is off.
	var rec *trace.TaskRecord
	for _, r := range res.Trace.Records() {
		if c.Workflow.Task(r.TaskID).Kind() == workflow.KindCompute {
			rec = r
			break
		}
	}
	origAt := rec.ReadDoneAt
	rec.ReadDoneAt += 0.125
	if v := Check(c.Platform, c.Workflow, c.Opts, res); !hasViolation(v, "computed for") {
		t.Errorf("shifted compute-start: no compute-time violation in %v", v)
	}
	rec.ReadDoneAt = origAt

	if v := Check(c.Platform, c.Workflow, c.Opts, res); len(v) != 0 {
		t.Fatalf("restored run still reports violations: %v", v)
	}
}

// TestCheckDetectsCkptTampering extends the tripwire test to the
// checkpoint invariants: corrupting the checkpoint tallies, a restart's
// recorded progress, or the durability of its source replica must all be
// caught by Check.
func TestCheckDetectsCkptTampering(t *testing.T) {
	// Scan seeds deterministically for a fault campaign that actually
	// restarted from a checkpoint, so every tamper target exists.
	var (
		c   Case
		ro  core.RunOptions
		res *core.Result
	)
	for seed := int64(1); ; seed++ {
		if seed > 100 {
			t.Fatal("no CkptCase seed in 1..100 produced a checkpoint restart")
		}
		cc, err := CkptCase(seed)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := core.NewSimulator(cc.Platform)
		if err != nil {
			t.Fatal(err)
		}
		base, err := sim.Run(cc.Workflow, cc.Opts)
		if err != nil {
			t.Fatal(err)
		}
		fo, err := cc.FaultOptions(base.Makespan)
		if err != nil {
			t.Fatal(err)
		}
		sim, err = core.NewSimulator(cc.Platform)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := sim.Run(cc.Workflow, fo)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Faults.CkptRestarts > 0 {
			c, ro, res = cc, fo, fr
			break
		}
	}
	if v := Check(c.Platform, c.Workflow, ro, res); len(v) != 0 {
		t.Fatalf("clean run reported violations: %v", v)
	}

	tamper := func(name string, mutate func()) {
		t.Helper()
		mutate()
		if v := Check(c.Platform, c.Workflow, ro, res); len(v) == 0 {
			t.Errorf("%s: tampering went undetected", name)
		}
	}
	findCounter := func(family string) *metrics.Sample {
		t.Helper()
		for i := range res.Metrics.Counters {
			if res.Metrics.Counters[i].Family == family {
				return &res.Metrics.Counters[i]
			}
		}
		t.Fatalf("snapshot has no %s counter", family)
		return nil
	}

	commits := findCounter(metrics.CkptCommitsTotal)
	orig := commits.Value
	tamper("inflated ckpt_commits_total", func() { commits.Value += 1 })
	commits.Value = orig

	recovered := findCounter(metrics.CkptRecoveredSecondsTotal)
	orig = recovered.Value
	tamper("skewed ckpt_recovered_seconds_total", func() { recovered.Value += 0.5 })
	recovered.Value = orig

	events := res.Trace.Events()
	restart := -1
	for i := range events {
		if events[i].Kind == trace.RestartFrom {
			restart = i
			break
		}
	}
	if restart < 0 {
		t.Fatal("fault run has no restart-from event")
	}
	origEv := events[restart]

	// Claim the restart recovered more compute than the task ever lost.
	tamper("inflated restart progress", func() { events[restart].X = 1e9 })
	events[restart] = origEv

	// Claim the restart recovered half of what its snapshot captured: no
	// more than the task lost (check b), but not what was committed.
	events[restart].X /= 2
	if v := Check(c.Platform, c.Workflow, ro, res); !hasViolation(v, "whose commit captured") {
		t.Errorf("halved restart progress: no commit-progress violation in %v", v)
	}
	events[restart] = origEv

	// Claim the restart read a replica that was never committed anywhere.
	tamper("restart from never-committed snapshot", func() {
		events[restart].Name, events[restart].X = "ckpt-ghost-000000", 0
	})
	events[restart] = origEv

	if v := Check(c.Platform, c.Workflow, ro, res); len(v) != 0 {
		t.Fatalf("restored run still reports violations: %v", v)
	}
}

// TestCheckDetectsAdaptTampering extends the tripwire test to the
// adaptation invariants: inflating the adapt byte tally past the storage
// traffic that could have carried it, or skewing the trace-pinned adapt
// event counters, must all be caught by Check.
func TestCheckDetectsAdaptTampering(t *testing.T) {
	// Scan seeds deterministically for a fault campaign that actually
	// spilled bytes, so every tamper target exists.
	var (
		c   Case
		ro  core.RunOptions
		res *core.Result
	)
	for seed := int64(1); ; seed++ {
		if seed > 100 {
			t.Fatal("no AdaptCase seed in 1..100 produced an adapt spill with bytes moved")
		}
		ac, err := AdaptCase(seed)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := core.NewSimulator(ac.Platform)
		if err != nil {
			t.Fatal(err)
		}
		base, err := sim.Run(ac.Workflow, ac.Opts)
		if err != nil {
			t.Fatal(err)
		}
		fo, err := ac.FaultOptions(base.Makespan)
		if err != nil {
			t.Fatal(err)
		}
		sim, err = core.NewSimulator(ac.Platform)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := sim.Run(ac.Workflow, fo)
		if err != nil {
			t.Fatal(err)
		}
		spilledBytes := false
		for _, s := range fr.Metrics.Counters {
			if s.Family == metrics.AdaptBytesTotal && s.Op == metrics.OpSpill && s.Value > 0 {
				spilledBytes = true
			}
		}
		if fr.Faults.AdaptSpills > 0 && fr.Faults.AdaptReplications > 0 && spilledBytes {
			c, ro, res = ac, fo, fr
			break
		}
	}
	if v := Check(c.Platform, c.Workflow, ro, res); len(v) != 0 {
		t.Fatalf("clean run reported violations: %v", v)
	}

	tamper := func(name string, mutate func()) {
		t.Helper()
		mutate()
		if v := Check(c.Platform, c.Workflow, ro, res); len(v) == 0 {
			t.Errorf("%s: tampering went undetected", name)
		}
	}
	findCounter := func(family string) *metrics.Sample {
		t.Helper()
		for i := range res.Metrics.Counters {
			if res.Metrics.Counters[i].Family == family {
				return &res.Metrics.Counters[i]
			}
		}
		t.Fatalf("snapshot has no %s counter", family)
		return nil
	}

	// Claim the adaptation layer moved more bytes than the source tier ever
	// served as reads (and than the PFS ever absorbed as writes).
	moved := findCounter(metrics.AdaptBytesTotal)
	orig := moved.Value
	tamper("inflated adapt_bytes_total", func() { moved.Value += 1 << 50 })
	moved.Value = orig

	spills := findCounter(metrics.AdaptSpillsTotal)
	orig = spills.Value
	tamper("inflated adapt_spills_total", func() { spills.Value += 1 })
	spills.Value = orig

	repls := findCounter(metrics.AdaptReplicationsTotal)
	orig = repls.Value
	tamper("inflated adapt_replications_total", func() { repls.Value += 1 })
	repls.Value = orig

	falls := findCounter(metrics.AdaptFallbacksTotal)
	orig = falls.Value
	tamper("dropped adapt_fallbacks_total", func() { falls.Value -= 1 })
	falls.Value = orig

	if v := Check(c.Platform, c.Workflow, ro, res); len(v) != 0 {
		t.Fatalf("restored run still reports violations: %v", v)
	}
}

// hasViolation reports whether one of the violations contains want.
func hasViolation(violations []string, want string) bool {
	for _, v := range violations {
		if strings.Contains(v, want) {
			return true
		}
	}
	return false
}

// FaultOptions returns the run options for the case's fault campaign,
// calibrated against the fault-free makespan: task crashes with MTBF
// makespan/CrashDiv, about one node outage, occasional burst-buffer
// rejections, and a transient bandwidth-degradation window. All processes
// are budget-bounded so recovery always terminates.
func (c Case) FaultOptions(baseline float64) (core.RunOptions, error) {
	if c.CrashDiv <= 0 {
		return core.RunOptions{}, fmt.Errorf("invariants: case %s has no fault regime", c.Name)
	}
	inj, err := faults.New(faults.Config{
		Seed:        c.Seed,
		TaskCrash:   &faults.CrashProcess{Arrival: faults.Exp(baseline / c.CrashDiv), Budget: int(2 * c.CrashDiv)},
		NodeFailure: &faults.NodeProcess{Arrival: faults.Exp(baseline), MTTR: baseline / 10, Budget: 2},
		BBReject:    &faults.RejectPolicy{Prob: 0.05},
		BBDegrade:   &faults.DegradeProcess{Arrival: faults.Exp(baseline / 2), Duration: baseline / 20, Factor: 0.3},
	})
	if err != nil {
		return core.RunOptions{}, err
	}
	fo := c.Opts
	fo.Faults = inj
	return fo, nil
}
