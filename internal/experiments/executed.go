package experiments

import (
	"fmt"
	"math"
	"slices"

	"bbwfsim/internal/core"
	"bbwfsim/internal/metrics"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/workflow"
)

// executedSink is the trace sink the adaptive and resilience-ckpt
// experiments read a run's executed compute seconds from, so that a run
// builds no metrics collector unless metrics were asked for. It adds the
// X of every task-end and task-fail event to its task's compute category
// in event order, as the metrics fold's compute_executed_seconds_total
// series do, and total adds the categories in sorted-name order starting
// from 0.0, as sumFamily does over a snapshot: the two totals are equal
// bit for bit.
type executedSink struct {
	cat  []int32   // per task index: its category's position in sums, -1 for non-compute tasks
	sums []float64 // per compute-task category, in sorted-name order
}

func newExecutedSink(wf *workflow.Workflow) *executedSink {
	var names []string
	for _, t := range wf.Tasks() {
		if t.Kind() == workflow.KindCompute {
			names = append(names, t.Name())
		}
	}
	slices.Sort(names)
	names = slices.Compact(names)
	s := &executedSink{cat: make([]int32, len(wf.Tasks())), sums: make([]float64, len(names))}
	for _, t := range wf.Tasks() {
		s.cat[t.Index()] = -1
		if t.Kind() == workflow.KindCompute {
			i, _ := slices.BinarySearch(names, t.Name())
			s.cat[t.Index()] = int32(i)
		}
	}
	return s
}

// Emit implements trace.Sink.
func (s *executedSink) Emit(ev trace.Event) {
	if ev.Kind == trace.TaskEnd || ev.Kind == trace.TaskFail {
		if c := s.cat[ev.M]; c >= 0 {
			s.sums[c] += ev.X
		}
	}
}

// Close implements trace.Sink.
func (s *executedSink) Close() error { return nil }

// total returns the run's executed compute seconds.
func (s *executedSink) total() float64 {
	total := 0.0
	for _, v := range s.sums {
		total += v
	}
	return total
}

// executedRun is a run's result with its executed compute seconds.
type executedRun struct {
	res      *core.Result
	executed float64
}

// runExecuted runs wf on sim under ro with an executedSink attached and
// returns the result with the run's executed compute seconds.
func runExecuted(sim *core.Simulator, wf *workflow.Workflow, ro core.RunOptions) (executedRun, error) {
	sink := newExecutedSink(wf)
	ro.TraceSink = sink
	res, err := sim.Run(wf, ro)
	if err != nil {
		return executedRun{}, err
	}
	return executedRun{res, sink.total()}, nil
}

// check reports an error when the run carries metrics whose
// compute_executed_seconds_total family does not add up to its executed
// seconds bit for bit: the sink and the metrics fold are two derivations
// of one quantity from one event stream.
func (r executedRun) check() error {
	if r.res.Metrics == nil {
		return nil
	}
	if m := sumFamily(r.res.Metrics, metrics.ComputeExecutedSecondsTotal); math.Float64bits(m) != math.Float64bits(r.executed) {
		return fmt.Errorf("experiments: executed compute %v from the trace, %v from the metrics", r.executed, m)
	}
	return nil
}

// sumFamily totals a counter family across every key of a snapshot.
func sumFamily(snap *metrics.Snapshot, family string) float64 {
	total := 0.0
	for _, s := range snap.Counters {
		if s.Family == family {
			total += s.Value
		}
	}
	return total
}
