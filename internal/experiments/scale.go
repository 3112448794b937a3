package experiments

import (
	"fmt"

	"bbwfsim/internal/core"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/workloads"
)

// RunScale measures the simulator's ceiling on generated WfBench-style
// workflows far past the paper's real applications: tens of thousands to
// hundreds of thousands of tasks on a fixed platform. Runs use the counting
// trace sink plus scratch-lifecycle options (evict after last read, PFS
// fallback), so live memory stays O(active tasks) — the configuration the
// million-task acceptance run uses. The default columns are deterministic;
// Options.Stopwatch adds wall-clock columns for interactive use.
func RunScale(opts Options) ([]*Table, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	header := []string{"tasks", "files", "events", "events per sim-second", "peak pending events"}
	if o.Stopwatch != nil {
		header = append(header, "wall time [ms]", "events per wall-second")
	}
	t := &Table{
		ID:     "scale",
		Title:  "Simulator ceiling vs. generated workflow size (montage topology, 8 Cori nodes, counting trace)",
		Header: header,
	}
	counts := []int{1000, 10000, 100000}
	if o.Quick {
		counts = []int{1000, 10000}
	}
	// With a stopwatch injected, the points must run one at a time in row
	// order — concurrent runs would time each other's interference.
	po := o
	if o.Stopwatch != nil {
		po.Jobs = 1
	}
	rows, err := runPoints(po, counts, func(tasks int) ([]string, error) {
		wf, err := workloads.Scale(workloads.ScaleSpec{Topology: "montage", Tasks: tasks, Seed: o.Seed})
		if err != nil {
			return nil, err
		}
		sim := core.MustNewSimulator(platform.Cori(8, platform.BBPrivate))
		var start int64
		if o.Stopwatch != nil {
			start = o.Stopwatch().Nanoseconds()
		}
		res, err := sim.Run(wf, core.RunOptions{
			StagedFraction:     0.5,
			IntermediatesToBB:  true,
			PrePlaceInputs:     true,
			EvictAfterLastRead: true,
			BBFallback:         true,
			TraceSink:          trace.Discard,
		})
		if err != nil {
			return nil, err
		}
		row := []string{
			fmt.Sprint(len(wf.Tasks())),
			fmt.Sprint(len(wf.Files())),
			fmt.Sprint(res.Events),
			fmt.Sprintf("%.0f", float64(res.Events)/res.Makespan),
			fmt.Sprint(res.PeakPending),
		}
		if o.Stopwatch != nil {
			wallNs := o.Stopwatch().Nanoseconds() - start
			row = append(row,
				fmt.Sprintf("%.1f", float64(wallNs)/1e6),
				fmt.Sprintf("%.0f", float64(res.Events)/(float64(wallNs)/1e9)),
			)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes,
		"the counting trace keeps per-kind counters instead of retained events, and evict-",
		"after-last-read caps storage registry growth, so memory tracks the peak-pending",
		"column (active tasks) rather than total history — the O(1)-per-event regime that",
		"lets a million-task workflow simulate on a laptop.")
	return []*Table{t}, nil
}
