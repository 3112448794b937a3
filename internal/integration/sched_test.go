package integration

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bbwfsim/internal/experiments"
	"bbwfsim/internal/faults"
	"bbwfsim/internal/runner"
	"bbwfsim/internal/sched"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workloads"
)

// updateGoldens rewrites the committed experiment goldens instead of
// comparing against them.
var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata goldens")

// TestSchedExperimentBitIdenticalAcrossJobs is the multi-tenant face of
// the -j1 == -jN contract: the sched experiment — policy × BB-pressure
// grid plus the built-in fault section (the scarce grid under a seeded
// node-failure campaign) — rendered serially and through the worker pool
// must emit byte-identical CSV.
func TestSchedExperimentBitIdenticalAcrossJobs(t *testing.T) {
	e, ok := experiments.Find("sched")
	if !ok {
		t.Fatal("sched experiment not registered")
	}
	render := func(jobs int) string {
		tables, err := e.Run(experiments.Options{Quick: true, Seed: 1, Jobs: jobs})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		var buf bytes.Buffer
		for _, tb := range tables {
			fmt.Fprintf(&buf, "# %s\n", tb.ID)
			if err := tb.CSV(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.String()
	}
	serial := render(1)
	for _, jobs := range campaignJobCounts() {
		if got := render(jobs); got != serial {
			t.Errorf("jobs=%d CSV differs from serial:\n--- serial ---\n%s\n--- jobs=%d ---\n%s",
				jobs, serial, jobs, got)
		}
	}
}

// TestSchedTraceBitIdenticalAcrossJobs pushes past the rendered tables to
// the campaign traces and snapshots: a grid of campaigns — every policy,
// with and without a fault campaign — fanned through the runner must
// serialize, cell for cell, the same trace JSON and metrics JSON as the
// serial loop. Same events, same timestamps, same order, same bytes.
func TestSchedTraceBitIdenticalAcrossJobs(t *testing.T) {
	type cell struct {
		policy string
		faults bool
	}
	var cells []cell
	for _, p := range sched.Policies() {
		cells = append(cells, cell{p, false}, cell{p, true})
	}
	runAll := func(jobs int) [][]byte {
		out, err := runner.Map(context.Background(), jobs, len(cells), func(i int) ([]byte, error) {
			c := cells[i]
			campaign, err := workloads.Campaign(workloads.CampaignSpec{
				Jobs: 150, Seed: 42,
				ArrivalMean: 20, RuntimeMean: 300,
				MaxNodes: 8, BBMean: 2 * units.GiB,
			})
			if err != nil {
				return nil, err
			}
			cfg := sched.Config{
				TraceSink: trace.Retain,
				Cluster: sched.Cluster{
					Nodes:        16,
					BBCapacity:   64 * units.GiB,
					BBBandwidth:  units.Bandwidth(2 * units.GiB),
					PFSBandwidth: units.Bandwidth(512 * units.MiB),
				},
				Policy: c.policy,
				Jobs:   campaign,
			}
			if c.faults {
				cfg.Faults = &sched.FaultPlan{
					Seed: 99,
					Node: &faults.NodeProcess{Arrival: faults.Exp(1500), MTTR: 600, Budget: 5},
				}
			}
			res, err := sched.Run(cfg)
			if err != nil {
				return nil, err
			}
			tr, err := json.Marshal(res.Trace)
			if err != nil {
				return nil, err
			}
			mj, err := res.Metrics.JSON()
			if err != nil {
				return nil, err
			}
			return append(tr, mj...), nil
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return out
	}
	serial := runAll(1)
	for _, jobs := range campaignJobCounts() {
		got := runAll(jobs)
		for i := range cells {
			if !bytes.Equal(serial[i], got[i]) {
				t.Errorf("jobs=%d: cell %s/faults=%v trace+metrics differ from serial",
					jobs, cells[i].policy, cells[i].faults)
			}
		}
	}
}

// TestExistingExperimentGoldens pins representative single-workflow
// experiments to committed golden bytes, so growing the registry (the
// sched row included) can never silently perturb existing output. The
// goldens regenerate with:
//
//	go test ./internal/integration -run TestExistingExperimentGoldens -update-goldens
func TestExistingExperimentGoldens(t *testing.T) {
	for _, id := range []string{"table1", "fig4", "fig10"} {
		e, ok := experiments.Find(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		tables, err := e.Run(experiments.Options{Quick: true, Seed: 1, Reps: 2})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var buf bytes.Buffer
		for _, tb := range tables {
			fmt.Fprintf(&buf, "# %s\n", tb.ID)
			if err := tb.CSV(&buf); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join("testdata", id+"_quick.golden")
		if *updateGoldens {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing golden (regenerate with -update-goldens): %v", id, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s output diverged from its golden:\n--- got ---\n%s\n--- want ---\n%s",
				id, buf.String(), want)
		}
	}
}
