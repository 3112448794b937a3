package integration

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"bbwfsim/internal/core"
	"bbwfsim/internal/experiments"
	"bbwfsim/internal/genomes"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/runner"
	"bbwfsim/internal/trace"
)

// campaignJobCounts are the worker counts every parallelism test compares
// against serial: the CLI default (GOMAXPROCS) and a forced 8-worker pool,
// so the concurrent dispatch path is exercised even on a single-core
// machine where GOMAXPROCS collapses to 1.
func campaignJobCounts() []int {
	return []int{runtime.GOMAXPROCS(0), 8}
}

// TestParallelCampaignBitIdentical is the tentpole's contract test: an
// experiment rendered at -j 1 and at -j N must emit byte-identical CSV.
// It covers the accuracy sweep (fig10: two fanned stages with a calibration
// hand-off), the fault-injection sweep (resilience: per-case seed streams),
// and the 1000Genomes case study (fig13: the flow solver's heaviest user).
// Run under -race this doubles as the data-race witness for the shared
// read-only inputs (workflows, profiles, presets).
func TestParallelCampaignBitIdentical(t *testing.T) {
	for _, id := range []string{"fig10", "resilience", "fig13"} {
		e, ok := experiments.Find(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		t.Run(id, func(t *testing.T) {
			render := func(jobs int) string {
				tables, err := e.Run(experiments.Options{Quick: true, Seed: 1, Reps: 2, Jobs: jobs})
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
		})
	}
}

// TestParallelTraceBitIdentical pushes past rendered tables to the full
// event trace: a grid of 1000Genomes runs fanned through the runner must
// produce, point for point, the same serialized trace as the serial loop —
// same events, same timestamps, same order.
func TestParallelTraceBitIdentical(t *testing.T) {
	wf := genomes.MustNew(genomes.Params{Chromosomes: 4})
	cfg, ok := platform.Presets(4)["cori-private"]
	if !ok {
		t.Fatal("platform preset cori-private missing")
	}
	const points = 6
	runAll := func(jobs int) [][]byte {
		traces, err := runner.Map(context.Background(), jobs, points, func(i int) ([]byte, error) {
			sim := core.MustNewSimulator(cfg)
			res, err := sim.Run(wf, core.RunOptions{
				TraceSink:      trace.Retain,
				PrePlaceInputs: true,
				StagedFraction: float64(i) / (points - 1),
			})
			if err != nil {
				return nil, err
			}
			return json.Marshal(res.Trace)
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return traces
	}
	serial := runAll(1)
	for _, jobs := range campaignJobCounts() {
		got := runAll(jobs)
		for i := range serial {
			if !bytes.Equal(serial[i], got[i]) {
				t.Errorf("jobs=%d: trace %d differs from serial (%d vs %d bytes)",
					jobs, i, len(got[i]), len(serial[i]))
			}
		}
	}
}
