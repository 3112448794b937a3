package integration

import (
	"bytes"
	"os"
	"testing"

	"bbwfsim/internal/experiments"
	"bbwfsim/internal/metrics"
)

const fig13MetricsGoldenPath = "testdata/fig13_quick_metrics.golden.json"

// TestFig13MetricsGolden pins the bytes of the merged snapshot
// `bbexp -exp fig13 -quick -metrics` writes: the experiment's per-run
// snapshots merged in index order and rendered as JSON. An instrumented
// experiment that stops collecting its runs' metrics fails here.
// Regenerate with -update-goldens.
func TestFig13MetricsGolden(t *testing.T) {
	e, ok := experiments.Find("fig13")
	if !ok {
		t.Fatal("unknown experiment fig13")
	}
	var snaps []*metrics.Snapshot
	opts := experiments.Options{Quick: true, Seed: 1, Jobs: 2,
		Metrics: func(s *metrics.Snapshot) { snaps = append(snaps, s) }}
	if _, err := e.Run(opts); err != nil {
		t.Fatal(err)
	}
	merged := metrics.Merge(snaps)
	if merged == nil {
		t.Fatal("fig13 handed over no metrics snapshot")
	}
	got, err := merged.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if *updateGoldens {
		if err := os.WriteFile(fig13MetricsGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fig13MetricsGoldenPath)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update-goldens): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fig13 -quick merged metrics diverged from %s", fig13MetricsGoldenPath)
	}
}
