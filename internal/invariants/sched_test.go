package invariants

import (
	"bytes"
	"testing"

	"bbwfsim/internal/metrics"
	"bbwfsim/internal/sched"
	"bbwfsim/internal/trace"
)

// TestSchedPropertyHarness drives 200 seeded random campaigns — cluster ×
// policy × contended synthetic workload, ~1/3 with a node-failure
// campaign on top — through the multi-tenant scheduler and checks every
// scheduling invariant on each result: no node or BB oversubscription at
// any virtual instant, no admitted job starves, conservation of
// submitted = completed + failed + rejected across trace, stats, and
// counters, and the bitwise snapshot identities. Every 25th campaign is
// additionally replayed and must reproduce its snapshot byte-for-byte.
func TestSchedPropertyHarness(t *testing.T) {
	const cases = 200
	var withFaults, bounded int
	var nodeFails, rejected, failed, completed int
	polSeen := map[string]bool{}
	for seed := int64(1); seed <= cases; seed++ {
		cfg, err := SchedCase(seed)
		if err != nil {
			t.Fatalf("SchedCase(%d): %v", seed, err)
		}
		if cfg.Faults != nil {
			withFaults++
		}
		if cfg.Cluster.BBCapacity > 0 {
			bounded++
		}
		polSeen[cfg.Policy] = true

		res, err := sched.Run(cfg)
		if err != nil {
			t.Fatalf("SchedCase(%d) %s: Run: %v", seed, cfg.Policy, err)
		}
		for _, v := range CheckSched(cfg, res) {
			t.Errorf("seed %d (%s): %s", seed, cfg.Policy, v)
		}
		nodeFails += res.NodeFailures
		rejected += res.Rejected
		failed += res.Failed
		completed += res.Completed

		if seed%25 == 0 {
			replay, err := sched.Run(cfg)
			if err != nil {
				t.Fatalf("SchedCase(%d) %s: replay: %v", seed, cfg.Policy, err)
			}
			a, err := res.Metrics.JSON()
			if err != nil {
				t.Fatalf("seed %d: JSON: %v", seed, err)
			}
			b, err := replay.Metrics.JSON()
			if err != nil {
				t.Fatalf("seed %d: JSON: %v", seed, err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("seed %d (%s): replayed snapshot differs from original", seed, cfg.Policy)
			}
		}
	}
	// Guard against generator drift silently hollowing out the harness.
	if withFaults < 40 {
		t.Errorf("only %d/%d campaigns drew a fault plan; generator coverage degraded", withFaults, cases)
	}
	if bounded < 130 {
		t.Errorf("only %d/%d campaigns drew a bounded BB; generator coverage degraded", bounded, cases)
	}
	for _, p := range sched.Policies() {
		if !polSeen[p] {
			t.Errorf("no campaign drew policy %s; generator coverage degraded", p)
		}
	}
	if nodeFails < 20 {
		t.Errorf("only %d node failures across %d campaigns; harness coverage degraded", nodeFails, cases)
	}
	if rejected < 20 {
		t.Errorf("only %d rejected jobs; harness coverage degraded", rejected)
	}
	if failed < 10 {
		t.Errorf("only %d failed jobs; harness coverage degraded", failed)
	}
	if completed < 5000 {
		t.Errorf("only %d completed jobs; harness coverage degraded", completed)
	}
}

// TestCheckSchedDetectsTampering makes sure CheckSched is a tripwire,
// not a tautology: corrupting any of the quantities it validates — the
// snapshot counters, the per-job stats, the trace details, the outcome
// tallies, the makespan — must produce a violation.
func TestCheckSchedDetectsTampering(t *testing.T) {
	// Scan seeds deterministically for a campaign that completed, rejected,
	// and failed jobs, so every tamper target exists.
	var (
		cfg sched.Config
		res *sched.Result
	)
	for seed := int64(1); ; seed++ {
		if seed > 200 {
			t.Fatal("no SchedCase seed in 1..200 completed, rejected, and failed jobs at once")
		}
		c, err := SchedCase(seed)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sched.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if r.Completed > 0 && r.Rejected > 0 && r.Failed > 0 {
			cfg, res = c, r
			break
		}
	}
	if v := CheckSched(cfg, res); len(v) != 0 {
		t.Fatalf("clean campaign reported violations: %v", v)
	}

	tamper := func(name string, mutate func()) {
		t.Helper()
		mutate()
		if v := CheckSched(cfg, res); len(v) == 0 {
			t.Errorf("%s: tampering went undetected", name)
		}
	}
	findCounter := func(family, op string) *metrics.Sample {
		t.Helper()
		for i := range res.Metrics.Counters {
			c := &res.Metrics.Counters[i]
			if c.Family == family && c.Op == op {
				return c
			}
		}
		t.Fatalf("snapshot has no %s{%s} counter", family, op)
		return nil
	}

	completedCtr := findCounter(metrics.SchedJobsTotal, metrics.OutcomeCompleted)
	orig := completedCtr.Value
	tamper("inflated sched_jobs_total{completed}", func() { completedCtr.Value += 1 })
	completedCtr.Value = orig

	waitCtr := findCounter(metrics.SchedWaitSecondsTotal, "")
	orig = waitCtr.Value
	tamper("skewed sched_wait_seconds_total", func() { waitCtr.Value += 0.125 })
	waitCtr.Value = orig

	var done *sched.JobStat
	for i := range res.Jobs {
		if res.Jobs[i].Outcome == sched.Completed {
			done = &res.Jobs[i]
			break
		}
	}
	origWait := done.Wait
	tamper("skewed per-job wait", func() { done.Wait += 0.125 })
	done.Wait = origWait

	origOutcome := done.Outcome
	tamper("flipped job outcome", func() { done.Outcome = sched.Failed })
	done.Outcome = origOutcome

	events := res.Trace.Events()
	start := -1
	for i := range events {
		if events[i].Kind == trace.JobStart {
			start = i
			break
		}
	}
	if start < 0 {
		t.Fatal("campaign trace has no job-start event")
	}
	origEv := events[start]
	tamper("oversubscribed start detail", func() { events[start].N, events[start].X = 999, 0 })
	events[start] = origEv

	origMakespan := res.Makespan
	tamper("shifted makespan", func() { res.Makespan *= 1.5 })
	res.Makespan = origMakespan

	origEvents := res.Events
	tamper("dropped kernel events", func() { res.Events -= 1 })
	res.Events = origEvents

	if v := CheckSched(cfg, res); len(v) != 0 {
		t.Fatalf("restored campaign still reports violations: %v", v)
	}
}
