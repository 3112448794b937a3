package main

import (
	"bufio"
	"bytes"
	"encoding/csv"
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
		{"trace-out without trace", []string{"-gen", "chain:5", "-trace-out", "jsonl"}, "-trace-out needs -trace"},
		{"trace-out vs gantt", []string{"-gen", "chain:5", "-trace", "t", "-trace-out", "csv", "-gantt"}, "-gantt needs the retained trace"},
		{"bad trace-out format", []string{"-gen", "chain:5", "-trace", "t", "-trace-out", "xml"}, "unknown -trace-out format"},
		{"sched vs workflow", []string{"-sched", "fcfs", "-workflow", "a.json"}, "-sched is incompatible"},
		{"sched vs gen", []string{"-sched", "fcfs", "-gen", "chain:5"}, "-sched is incompatible"},
		{"sched vs gantt", []string{"-sched", "fcfs", "-gantt"}, "-sched supports only the retained trace"},
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

// TestGenCountingRun: a generated workflow simulates end to end with no
// trace output and reports the kernel cost counters, then its Prometheus
// metrics on stdout (-prom -).
func TestGenCountingRun(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{"-gen", "chain:20", "-fraction", "1", "-intermediates-bb", "-prom", "-"}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run = %d, want 0 (stderr: %s)", code, errOut.String())
	}
	for _, want := range []string{"scale-chain-20 (20 tasks", "makespan:", "events:      ",
		"\n# TYPE bbwfsim_makespan_seconds gauge\nbbwfsim_makespan_seconds 104.03"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
}

// TestSchedCampaignRun: the -sched mode runs a synthetic campaign end to
// end, reports the outcome ledger, and writes trace and metrics (JSON and
// Prometheus) artifacts.
func TestSchedCampaignRun(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "campaign.json")
	metricsPath := filepath.Join(dir, "campaign-metrics.json")
	promPath := filepath.Join(dir, "campaign.prom")
	args := []string{"-sched", "easy", "-platform", "cori-private", "-nodes", "16",
		"-sched-jobs", "200", "-sched-seed", "7",
		"-sched-fault-mean", "5000", "-sched-fault-budget", "3",
		"-trace", tracePath, "-metrics", metricsPath, "-prom", promPath}
	var out, errOut strings.Builder
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run = %d, want 0 (stderr: %s)", code, errOut.String())
	}
	for _, want := range []string{"policy:    easy", "campaign:  200 jobs (synthetic, seed 7)",
		"outcomes:", "mean wait:", "makespan:", "trace written to",
		"metrics written to " + metricsPath, "metrics written to " + promPath} {
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
	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "# TYPE bbwfsim_sched_jobs_total counter\n") {
		t.Errorf("%s lacks the sched job counter:\n%s", promPath, prom)
	}
}

// TestSchedCampaignTraceOut: a -sched campaign writes its trace in every
// format, and the JSON, JSONL and CSV outputs carry the same events, in
// the same order.
func TestSchedCampaignTraceOut(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-sched", "easy", "-platform", "cori-private", "-nodes", "16",
		"-sched-jobs", "150", "-sched-seed", "7", "-sched-fault-mean", "5000", "-sched-bb-cap", "40"}
	outputs := map[string][]byte{}
	for _, format := range []string{"", "jsonl", "csv"} {
		path := filepath.Join(dir, "campaign."+format)
		args := append(append([]string(nil), base...), "-trace", path)
		if format != "" {
			args = append(args, "-trace-out", format)
		}
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("%s: run = %d, want 0 (stderr: %s)", format, code, errOut.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		outputs[format] = data
	}
	var saved struct {
		Events []struct {
			Time   float64 `json:"time"`
			Kind   string  `json:"kind"`
			Task   string  `json:"task"`
			Detail string  `json:"detail"`
		} `json:"events"`
	}
	if err := json.Unmarshal(outputs[""], &saved); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(outputs["jsonl"]), "\n"), "\n")
	rows, err := csv.NewReader(bytes.NewReader(outputs["csv"])).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(saved.Events) == 0 || len(lines) != len(saved.Events) || len(rows)-1 != len(saved.Events) {
		t.Fatalf("%d JSON events, %d JSONL lines, %d CSV rows after the header",
			len(saved.Events), len(lines), len(rows)-1)
	}
	for i, ev := range saved.Events {
		line, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if want := strings.Replace(string(line), `,"detail":""`, "", 1); lines[i] != want {
			t.Fatalf("JSONL line %d = %s, JSON event %s", i, lines[i], want)
		}
		if row := rows[i+1]; row[1] != ev.Kind || row[2] != ev.Task || row[3] != ev.Detail {
			t.Fatalf("CSV row %d = %q, JSON event %+v", i+1, row, ev)
		}
	}
}

// TestSchedCampaignSWF: the -sched-swf path parses an SWF trace into the
// campaign, including a trace whose records are not in submit order.
func TestSchedCampaignSWF(t *testing.T) {
	for _, tc := range []struct {
		name  string
		lines []string
	}{
		{"sorted", []string{
			"; SWF header comment",
			"1 0 0 120 2 -1 -1 2 300 -1 1 1 1 1 1 1 1 1",
			"2 60 0 240 1 -1 -1 1 600 -1 1 1 1 1 1 1 1 1",
		}},
		{"unsorted", []string{
			"1 100 0 120 2 -1 -1 2 300 -1 1 1 1 1 1 1 1 1",
			"2 50 0 240 1 -1 -1 1 600 -1 1 1 1 1 1 1 1 1",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			swf := filepath.Join(t.TempDir(), "t.swf")
			if err := os.WriteFile(swf, []byte(strings.Join(tc.lines, "\n")+"\n"), 0o644); err != nil {
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
		})
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
