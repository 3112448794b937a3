package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagValidation pins the usage errors for the trace-sink and workflow
// source flags: they must be rejected before any simulation runs.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no source", []string{}, "exactly one of -workflow or -gen"},
		{"both sources", []string{"-workflow", "a.json", "-gen", "chain:5"}, "exactly one of -workflow or -gen"},
		{"no-trace vs gantt", []string{"-gen", "chain:5", "-no-trace", "-gantt"}, "-no-trace is incompatible"},
		{"no-trace vs trace", []string{"-gen", "chain:5", "-no-trace", "-trace", "t.json"}, "-no-trace is incompatible"},
		{"trace-out without trace", []string{"-gen", "chain:5", "-trace-out", "jsonl"}, "-trace-out needs -trace"},
		{"trace-out vs gantt", []string{"-gen", "chain:5", "-trace", "t", "-trace-out", "csv", "-gantt"}, "-gantt needs the retained trace"},
		{"bad trace-out format", []string{"-gen", "chain:5", "-trace", "t", "-trace-out", "xml"}, "unknown -trace-out format"},
		{"sched vs workflow", []string{"-sched", "fcfs", "-workflow", "a.json"}, "-sched is incompatible"},
		{"sched vs gen", []string{"-sched", "fcfs", "-gen", "chain:5"}, "-sched is incompatible"},
		{"sched vs no-trace", []string{"-sched", "fcfs", "-no-trace"}, "-sched supports only the retained trace"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut strings.Builder
			if code := run(tc.args, &out, &errOut); code != 2 {
				t.Fatalf("run(%v) = %d, want 2 (stderr: %s)", tc.args, code, errOut.String())
			}
			if !strings.Contains(errOut.String(), tc.want) {
				t.Errorf("stderr = %q, want substring %q", errOut.String(), tc.want)
			}
		})
	}
}

// TestBadGenSpec: a malformed -gen spec is a runtime error (exit 1) with
// the generator's message.
func TestBadGenSpec(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-gen", "ring:10"}, &out, &errOut); code != 1 {
		t.Fatalf("run(-gen ring:10) = %d, want 1", code)
	}
}

// TestGenCountingRun: a generated workflow simulates end to end in counting
// mode and reports the kernel cost counters instead of a trace.
func TestGenCountingRun(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-gen", "chain:20", "-no-trace", "-fraction", "1", "-intermediates-bb"}, &out, &errOut); code != 0 {
		t.Fatalf("run = %d, want 0 (stderr: %s)", code, errOut.String())
	}
	for _, want := range []string{"scale-chain-20 (20 tasks", "makespan:", "counting mode, no retained trace"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
}

// TestSchedCampaignRun: the -sched mode runs a synthetic campaign end to
// end, reports the outcome ledger, and writes trace and metrics artifacts.
func TestSchedCampaignRun(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "campaign.json")
	metricsPath := filepath.Join(dir, "campaign-metrics.json")
	args := []string{"-sched", "easy", "-platform", "cori-private", "-nodes", "16",
		"-sched-jobs", "200", "-sched-seed", "7",
		"-sched-fault-mean", "5000", "-sched-fault-budget", "3",
		"-trace", tracePath, "-metrics", metricsPath}
	var out, errOut strings.Builder
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run = %d, want 0 (stderr: %s)", code, errOut.String())
	}
	for _, want := range []string{"policy:    easy", "campaign:  200 jobs (synthetic, seed 7)",
		"outcomes:", "mean wait:", "makespan:", "trace written to", "metrics written to"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
	for _, p := range []string{tracePath, metricsPath} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var v map[string]any
		if err := json.Unmarshal(data, &v); err != nil {
			t.Errorf("%s is not JSON: %v", p, err)
		}
	}
}

// TestSchedCampaignSWF: the -sched-swf path parses an SWF trace into the
// campaign.
func TestSchedCampaignSWF(t *testing.T) {
	dir := t.TempDir()
	swf := filepath.Join(dir, "t.swf")
	lines := []string{
		"; SWF header comment",
		"1 0 0 120 2 -1 -1 2 300 -1 1 1 1 1 1 1 1 1",
		"2 60 0 240 1 -1 -1 1 600 -1 1 1 1 1 1 1 1 1",
	}
	if err := os.WriteFile(swf, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	args := []string{"-sched", "fcfs", "-platform", "summit", "-nodes", "4", "-sched-swf", swf}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run = %d, want 0 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(out.String(), "campaign:  2 jobs (SWF trace "+swf+")") {
		t.Errorf("stdout missing SWF campaign line:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "2 completed, 0 failed, 0 rejected") {
		t.Errorf("stdout missing outcomes:\n%s", out.String())
	}
}

// TestGenStreamingRun: -trace-out writes one well-formed row per event and
// the summary output still appears (summaries are folded in every mode).
func TestGenStreamingRun(t *testing.T) {
	dir := t.TempDir()
	for _, format := range []string{"jsonl", "csv"} {
		path := filepath.Join(dir, "trace."+format)
		var out, errOut strings.Builder
		args := []string{"-gen", "forkjoin:30", "-trace", path, "-trace-out", format, "-fraction", "1"}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("run(%s) = %d, want 0 (stderr: %s)", format, code, errOut.String())
		}
		if !strings.Contains(out.String(), "trace streamed to "+path) {
			t.Errorf("%s: stdout missing stream notice:\n%s", format, out.String())
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		lines := 0
		for sc.Scan() {
			line := sc.Text()
			if format == "jsonl" {
				var ev map[string]any
				if err := json.Unmarshal([]byte(line), &ev); err != nil {
					t.Fatalf("line %d is not JSON: %v", lines, err)
				}
			} else if lines == 0 && line != "time,kind,task,detail" {
				t.Fatalf("csv header = %q", line)
			}
			lines++
		}
		f.Close()
		// 30 tasks × at least ready+start+end events, plus transfers.
		if lines < 90 {
			t.Errorf("%s: only %d trace lines", format, lines)
		}
	}
}
