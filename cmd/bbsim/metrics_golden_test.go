package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bbwfsim/internal/swarp"
	"bbwfsim/internal/workflow"
)

// update rewrites the committed metrics goldens instead of comparing.
var update = flag.Bool("update", false, "rewrite testdata goldens")

// TestMetricsGolden pins the exact bytes of the -metrics JSON and -prom
// text for one run: the workflow `wfgen -type swarp -pipelines 2` writes,
// on cori-striped with half the inputs staged. A run that forgets to ask
// the simulator for its metrics, or that moves a single counter, fails
// here. Regenerate with:
//
//	go test ./cmd/bbsim -run TestMetricsGolden -update
func TestMetricsGolden(t *testing.T) {
	dir := t.TempDir()
	wfPath := filepath.Join(dir, "swarp.json")
	data, err := workflow.Marshal(swarp.MustNew(swarp.Params{Pipelines: 2, CoresPerTask: 32}))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wfPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	jsonPath, promPath := filepath.Join(dir, "met.json"), filepath.Join(dir, "met.prom")
	args := []string{"-workflow", wfPath, "-platform", "cori-striped", "-fraction", "0.5",
		"-metrics", jsonPath, "-prom", promPath}
	var out, errOut strings.Builder
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run = %d, want 0 (stderr: %s)", code, errOut.String())
	}
	for _, f := range []struct{ got, golden string }{
		{jsonPath, "testdata/metrics_swarp2.golden.json"},
		{promPath, "testdata/metrics_swarp2.golden.prom"},
	} {
		got, err := os.ReadFile(f.got)
		if err != nil {
			t.Fatal(err)
		}
		if *update {
			if err := os.WriteFile(f.golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(f.golden)
		if err != nil {
			t.Fatalf("missing golden (regenerate with -update): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s diverged from %s", filepath.Base(f.got), f.golden)
		}
	}
}
