package integration

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"testing"

	"bbwfsim/internal/adapt"
	"bbwfsim/internal/core"
	"bbwfsim/internal/exec"
	"bbwfsim/internal/faults"
	"bbwfsim/internal/genomes"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/runner"
	"bbwfsim/internal/swarp"
	"bbwfsim/internal/trace"
)

// modeCase is one simulation configuration the trace-sink equivalence suite
// replays under every kind of trace sink: a calibration-style fault-free
// run, a fault-campaign run, and an adaptation run, covering every Result
// field a sink could plausibly perturb. reexec marks the case whose
// faults re-execute finished tasks.
type modeCase struct {
	name   string
	reexec bool
	run    func(sink trace.Sink) (*core.Result, error)
}

// sinkKinds names the three ways a run can materialize its trace: retained
// in memory (trace.Retain), streamed (JSONL), and counted only (nil).
var sinkKinds = []string{"retained", "jsonl", "counting"}

func newSink(kind string) trace.Sink {
	switch kind {
	case "retained":
		return trace.Retain
	case "jsonl":
		return trace.NewJSONLSink(io.Discard)
	}
	return nil
}

func modeCases() []modeCase {
	return []modeCase{
		{"fig10-like", false, func(sink trace.Sink) (*core.Result, error) {
			wf := genomes.MustNew(genomes.Params{Chromosomes: 3})
			sim := core.MustNewSimulator(platform.Cori(4, platform.BBPrivate))
			return sim.Run(wf, core.RunOptions{
				PrePlaceInputs: true, StagedFraction: 1, IntermediatesToBB: true,
				TraceSink: sink,
			})
		}},
		{"resilience-like", true, func(sink trace.Sink) (*core.Result, error) {
			inj, err := faults.New(faults.Config{
				Seed:        41,
				TaskCrash:   &faults.CrashProcess{Arrival: faults.Exp(80), Budget: 8},
				NodeFailure: &faults.NodeProcess{Arrival: faults.Exp(200), MTTR: 40, Budget: 2},
				BBReject:    &faults.RejectPolicy{Prob: 0.1},
				BBDegrade:   &faults.DegradeProcess{Arrival: faults.Exp(100), Duration: 20, Factor: 0.3},
			})
			if err != nil {
				return nil, err
			}
			wf := genomes.MustNew(genomes.Params{Chromosomes: 4})
			sim := core.MustNewSimulator(platform.Cori(4, platform.BBPrivate))
			return sim.Run(wf, core.RunOptions{
				PrePlaceInputs: true, StagedFraction: 1, IntermediatesToBB: true,
				Faults: inj,
				Retry: exec.RetryPolicy{
					MaxRetries: 100, Backoff: exec.BackoffExponential,
					BaseDelay: 2, MaxDelay: 60, Jitter: 0.25, Seed: 13,
				},
				BBFallback: true,
				TraceSink:  sink,
			})
		}},
		{"adaptive-like", false, func(sink trace.Sink) (*core.Result, error) {
			inj, err := faults.New(faults.Config{
				Seed:      7,
				BBDegrade: &faults.DegradeProcess{Arrival: faults.Exp(60), Duration: 25, Factor: 0.3},
			})
			if err != nil {
				return nil, err
			}
			wf := swarp.MustNew(swarp.Params{Pipelines: 4, CoresPerTask: 8})
			sim := core.MustNewSimulator(platform.Cori(1, platform.BBPrivate))
			return sim.Run(wf, core.RunOptions{
				StagedFraction: 1, IntermediatesToBB: true, BBFallback: true,
				Faults: inj,
				Adapt: adapt.Policy{
					SpillHighWater: 0.5, ReplicateOnFault: true, DegradedFallback: true,
				},
				TraceSink: sink,
			})
		}},
	}
}

// fingerprint reduces a Result to the fields every trace sink must agree
// on, with every float kept at full bit precision. A retaining trace folds
// its summaries in first-touch order and a counting or streaming one in
// release order, so the summaries' bits pin that the two orders agree.
// They are left out where finished tasks re-execute (reexec): there a
// trace that releases counts a task once per execution, while the
// retained trace summarizes only each task's final record
// (checkReexecSummaries asserts that divergence).
func fingerprint(t *testing.T, res *core.Result, reexec bool) string {
	t.Helper()
	metricsJSON, err := res.Metrics.JSON()
	if err != nil {
		t.Fatal(err)
	}
	fp := fmt.Sprintf("makespan=%016x events=%d peak=%d faults=%+v bb=%+v pfs=%+v metrics=%s",
		math.Float64bits(res.Makespan), res.Events, res.PeakPending,
		res.Faults, res.BB, res.PFS, metricsJSON)
	if reexec {
		return fp
	}
	for _, s := range res.Summaries {
		fp += fmt.Sprintf(" %s:%d", s.Name, s.Count)
		for _, f := range []float64{s.MeanExec, s.MaxExec, s.MeanIO, s.MeanCompute, s.MeanWait,
			float64(s.BytesRead), float64(s.BytesWritten)} {
			fp += fmt.Sprintf(",%016x", math.Float64bits(f))
		}
	}
	return fp
}

// checkReexecSummaries asserts the one documented way a releasing trace's
// summaries differ from the retained ones under re-execution: the
// retained trace counts each task once, a releasing trace each execution
// (one per task-end event), and both cover the same task names.
func checkReexecSummaries(t *testing.T, name string, retained, released *core.Result) {
	t.Helper()
	count := func(res *core.Result) (n int, names []string) {
		for _, s := range res.Summaries {
			n += s.Count
			names = append(names, s.Name)
		}
		return n, names
	}
	nRetained, namesRetained := count(retained)
	nReleased, namesReleased := count(released)
	if fmt.Sprint(namesRetained) != fmt.Sprint(namesReleased) {
		t.Errorf("%s: summary names differ: retained %v, released %v", name, namesRetained, namesReleased)
	}
	if nRetained != len(retained.Trace.Records()) {
		t.Errorf("%s: retained summaries count %d executions, want one per task record (%d)",
			name, nRetained, len(retained.Trace.Records()))
	}
	if ends := released.Trace.CountKind(trace.TaskEnd); nReleased != ends {
		t.Errorf("%s: released summaries count %d executions, want one per task-end event (%d)",
			name, nReleased, ends)
	}
	if nReleased <= nRetained {
		t.Errorf("%s: no finished task re-executed (%d executions of %d tasks); the divergence is untested",
			name, nReleased, nRetained)
	}
}

// TestTraceModesEquivalent is the scale-mode safety argument: for a
// calibration run, a fault campaign, and an adaptation run, the streaming
// and counting sinks must yield bit-identical Results (makespan, event and
// fault counters, metrics and, without re-execution, summaries) to the
// retained trace — the trace is pure observation, never part of the
// simulation's causality. The whole matrix also runs under the parallel
// runner at -j1 and -j8 to pin that worker scheduling cannot leak into
// any sink either.
func TestTraceModesEquivalent(t *testing.T) {
	cases := modeCases()
	type cell struct {
		fp  string
		res *core.Result
	}
	runMatrix := func(jobs int) []cell {
		out, err := runner.Map(context.Background(), jobs, len(cases)*len(sinkKinds), func(i int) (cell, error) {
			c, kind := cases[i/len(sinkKinds)], sinkKinds[i%len(sinkKinds)]
			sink := newSink(kind)
			res, err := c.run(sink)
			if err != nil {
				return cell{}, fmt.Errorf("%s %s: %w", c.name, kind, err)
			}
			if sink != nil {
				if err := sink.Close(); err != nil {
					return cell{}, err
				}
			}
			if retains := sink == trace.Retain; retains != (len(res.Trace.Events()) != 0) {
				return cell{}, fmt.Errorf("%s %s: trace holds %d events", c.name, kind, len(res.Trace.Events()))
			}
			return cell{fp: fingerprint(t, res, c.reexec), res: res}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	seq := runMatrix(1)
	for ci, c := range cases {
		base := seq[ci*len(sinkKinds)]
		for ki := 1; ki < len(sinkKinds); ki++ {
			got := seq[ci*len(sinkKinds)+ki]
			if got.fp != base.fp {
				t.Errorf("%s: %s result diverges from retained:\n  retained: %s\n  %s: %s",
					c.name, sinkKinds[ki], base.fp, sinkKinds[ki], got.fp)
			}
			if c.reexec {
				checkReexecSummaries(t, c.name+" "+sinkKinds[ki], base.res, got.res)
			}
		}
	}
	par := runMatrix(8)
	for i := range seq {
		if seq[i].fp != par[i].fp {
			t.Errorf("cell %d: -j8 result diverges from -j1", i)
		}
	}
}

// TestFaultFreeSummariesEqualAcrossModes: without re-execution, the folded
// per-name summaries of a counting or streaming trace must be exactly the
// retained Summarize output — same names, counts, means, and byte totals.
func TestFaultFreeSummariesEqualAcrossModes(t *testing.T) {
	c := modeCases()[0] // fig10-like, fault-free
	var want []byte
	for _, kind := range sinkKinds {
		res, err := c.run(newSink(kind))
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(res.Summaries)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if string(got) != string(want) {
			t.Errorf("%s summaries differ:\n  retained: %s\n  %s: %s", kind, want, kind, got)
		}
	}
}

// TestRetainedTraceBytesStableAcrossJobs: the retained trace — the goldens'
// format — serializes to byte-identical JSON no matter how many runner
// workers are active around it.
func TestRetainedTraceBytesStableAcrossJobs(t *testing.T) {
	cases := modeCases()
	collect := func(jobs int) [][]byte {
		out, err := runner.Map(context.Background(), jobs, len(cases), func(i int) ([]byte, error) {
			res, err := cases[i].run(trace.Retain)
			if err != nil {
				return nil, err
			}
			return json.Marshal(res.Trace)
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq, par := collect(1), collect(8)
	for i, c := range cases {
		if string(seq[i]) != string(par[i]) {
			t.Errorf("%s: retained trace bytes differ between -j1 and -j8", c.name)
		}
	}
}
