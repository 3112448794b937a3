// Package experiments regenerates every table and figure of the paper's
// evaluation: the characterization figures (4–9) from the synthetic
// testbed, the accuracy figures (10–11) comparing the calibrated
// lightweight simulator against the testbed, the 1000Genomes case study
// (13–14), and two extension ablations (placement heuristics, calibration
// model). Each experiment renders fixed-width text tables whose rows are
// the series the paper plots.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"bbwfsim/internal/calib"
	"bbwfsim/internal/core"
	"bbwfsim/internal/metrics"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/runner"
	"bbwfsim/internal/swarp"
	"bbwfsim/internal/testbed"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

// Options tunes an experiment run.
type Options struct {
	// Reps is the number of testbed repetitions per configuration; the
	// paper averages over 15. Defaults to 15.
	Reps int
	// Seed is the base seed for testbed noise. Defaults to 1.
	Seed int64
	// Quick shrinks sweeps (fewer fractions, pipeline counts, reps) for
	// benchmarks and smoke tests.
	Quick bool
	// Jobs is the worker count for fanning a sweep's independent run
	// points across goroutines via internal/runner. Values < 1 resolve to
	// GOMAXPROCS; 1 executes serially. Every run point owns private
	// simulation state, so output is bit-identical at any Jobs value —
	// parallelism only changes wall-clock time.
	Jobs int
	// Recovery restricts the resilience-ckpt sweep to one recovery policy
	// (lineage, ckpt-bb, ckpt-pfs, ckpt-bb+drain). Empty runs them all.
	// Other experiments ignore it.
	Recovery string
	// SWF, when non-empty, feeds the sched experiment's campaign from
	// this Standard Workload Format trace file instead of the synthetic
	// generator: every (pressure, policy) cell replays the same trace
	// prefix, so rows differ by scheduling decisions alone. The file is
	// read once per RunSched call; output stays a bit-identical function
	// of (file contents, Options). Other experiments ignore it.
	SWF string
	// Metrics, when non-nil, receives each instrumented experiment's
	// aggregated observability snapshot: the per-run metrics.Snapshot of
	// every lightweight-simulator run the experiment performs, merged in
	// submission (index) order so the aggregate is bit-identical at any
	// Jobs value. Testbed runs carry no snapshot — the synthetic testbed
	// plays the role of the measured machine, not of an instrumented
	// simulation. Nil by default: experiments skip aggregation entirely
	// when nobody is observing.
	Metrics func(*metrics.Snapshot)
}

// emitMetrics merges per-run snapshots in index order and hands the result
// to the Options sink. The slice order must be a deterministic function of
// the experiment's sweep definition (never of worker completion order);
// every caller passes runner.Map output or a fixed concatenation of such
// outputs.
func emitMetrics(o Options, snaps []*metrics.Snapshot) {
	if o.Metrics == nil {
		return
	}
	if m := metrics.Merge(snaps); m != nil {
		o.Metrics(m)
	}
}

// withDefaults validates the options and fills the defaults in. Invalid
// values (negative repetition counts or seeds) error out here, before any
// experiment spends time simulating, and the error surfaces through every
// Run* entry point.
func (o Options) withDefaults() (Options, error) {
	q := o
	if q.Reps < 0 {
		return q, fmt.Errorf("experiments: negative repetition count %d", q.Reps)
	}
	if q.Seed < 0 {
		return q, fmt.Errorf("experiments: negative seed %d", q.Seed)
	}
	if q.Reps == 0 {
		q.Reps = 15
		if q.Quick {
			q.Reps = 3
		}
	}
	if q.Seed == 0 {
		q.Seed = 1
	}
	return q, nil
}

// Table is one rendered result table.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the table with aligned fixed-width columns.
func (t *Table) Fprint(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && utf8.RuneCountInString(cell) > widths[i] {
				widths[i] = utf8.RuneCountInString(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "## %s — %s\n\n", t.ID, t.Title); err != nil {
		return err
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, line(sep)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// CSV renders the table as comma-separated values (header first). Cells
// containing commas or quotes are quoted.
func (t *Table) CSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		quoted := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			quoted[i] = c
		}
		_, err := fmt.Fprintln(w, strings.Join(quoted, ","))
		return err
	}
	if err := writeRow(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, w int) string {
	n := utf8.RuneCountInString(s)
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) ([]*Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table I: simulation input parameters", RunTable1},
		{"fig4", "Fig. 4: stage-in time vs. fraction of input files in the BB", RunFig4},
		{"fig5", "Fig. 5: Resample/Combine execution time per BB mode and intermediate placement", RunFig5},
		{"fig6", "Fig. 6: execution time vs. cores per task (all data in BB)", RunFig6},
		{"fig7", "Fig. 7: execution time vs. concurrent pipelines (1 core each, all data in BB)", RunFig7},
		{"fig8", "Fig. 8: Resample run-to-run variability vs. concurrent pipelines", RunFig8},
		{"fig9", "Fig. 9: average achieved burst-buffer bandwidth", RunFig9},
		{"fig10", "Fig. 10: real vs. simulated makespan vs. staged fraction", RunFig10},
		{"fig11", "Fig. 11: real vs. simulated makespan vs. concurrent pipelines", RunFig11},
		{"fig13", "Fig. 13: 1000Genomes simulated makespan vs. staged fraction", RunFig13},
		{"fig14", "Fig. 14: 1000Genomes speedup + prior-study reference", RunFig14},
		{"ablation-placement", "Ablation: data-placement heuristics under a constrained BB", RunAblationPlacement},
		{"ablation-model", "Ablation: Eq. 4 (perfect speedup) vs. Eq. 3 (Amdahl) calibration", RunAblationModel},
		{"ablation-scheduler", "Ablation: WMS scheduling policies", RunAblationScheduler},
		{"ablation-lifecycle", "Ablation: scratch-data lifecycle management under a constrained BB", RunAblationLifecycle},
		{"ablation-visibility", "Ablation: private-mode visibility rule on multi-node runs", RunAblationVisibility},
		{"ablation-checkpoint", "Ablation: checkpoint-traffic interference", RunAblationCheckpoint},
		{"ablation-optimizer", "Ablation: simulator-in-the-loop placement search", RunAblationOptimizer},
		{"ablation-lambda", "Ablation: λ_io from the paper's PFS values vs. measured on the target mode", RunAblationLambda},
		{"ablation-structures", "Ablation: which workflow structures benefit from burst buffers", RunAblationStructures},
		{"ablation-sizing", "Ablation: burst-buffer capacity provisioning", RunAblationSizing},
		{"resilience", "Resilience: fault injection & recovery on SWarp", RunResilience},
		{"resilience-genomes", "Resilience: fault injection & recovery on 1000Genomes", RunResilienceGenomes},
		{"resilience-ckpt", "Resilience: checkpoint/restart policy study (interval × tier × failure rate)", RunResilienceCkpt},
		{"adaptive", "Graceful degradation: static vs. adaptive vs. oracle placement under BB pressure", RunAdaptive},
		{"sched", "Multi-tenant batch scheduling: policy × BB pressure on a shared cluster", RunSched},
		{"scalability", "Simulator cost vs. workflow size", RunScalability},
		{"scale", "Simulator ceiling on generated million-task-class workflows", RunScale},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- shared sweep definitions -------------------------------------------

func fractions(o Options) []float64 {
	if o.Quick {
		return []float64{0, 0.5, 1}
	}
	return []float64{0, 0.25, 0.5, 0.75, 1}
}

func pipelineCounts(o Options) []int {
	if o.Quick {
		return []int{1, 8, 32}
	}
	return []int{1, 2, 4, 8, 16, 32}
}

func coreCounts(o Options) []int {
	if o.Quick {
		return []int{1, 8, 32}
	}
	return []int{1, 2, 4, 8, 16, 32}
}

// profileOrder fixes the column order of the three machines.
var profileOrder = []string{"cori-private", "cori-striped", "summit"}

func orderedProfiles(nodes int) []testbed.Profile {
	all := testbed.Profiles(nodes)
	out := make([]testbed.Profile, 0, len(profileOrder))
	for _, name := range profileOrder {
		out = append(out, all[name])
	}
	return out
}

// simPreset returns the lightweight simulator's platform (Table I presets)
// matching a testbed profile name.
func simPreset(name string, nodes int) platform.Config {
	cfg, ok := platform.Preset(name, nodes)
	if !ok {
		panic(fmt.Sprintf("experiments: unknown profile %q", name))
	}
	return cfg
}

// testbedSwarp builds the ground-truth SWarp instance (true works; the
// testbed's compute model supplies the true scaling behavior).
func testbedSwarp(pipelines, cores int) *workflow.Workflow {
	return swarp.MustNew(swarp.Params{
		Pipelines:    pipelines,
		CoresPerTask: cores,
		ResampleWork: testbed.TrueResampleWork,
		CombineWork:  testbed.TrueCombineWork,
	})
}

// swarpWithWorks builds a simulator-side SWarp instance with explicit
// calibrated works.
func swarpWithWorks(pipelines, cores int, resampleWork, combineWork units.Flops) *workflow.Workflow {
	return swarp.MustNew(swarp.Params{
		Pipelines:    pipelines,
		CoresPerTask: cores,
		ResampleWork: resampleWork,
		CombineWork:  combineWork,
	})
}

// calibrateSwarp runs the paper's calibration pipeline: observe the anchor
// scenario (one pipeline, all data in the BB) on the testbed at the given
// core count, then apply Eq. 4 to produce the simulator's workflow.
func calibrateSwarp(prof testbed.Profile, pipelines, cores int, o Options) (*workflow.Workflow, error) {
	runner := testbed.NewRunner(prof, o.Seed)
	anchor, err := runner.Run(testbedSwarp(1, cores),
		core.RunOptions{StagedFraction: 1, IntermediatesToBB: true, CoresPerTask: cores}, o.Reps)
	if err != nil {
		return nil, fmt.Errorf("calibration anchor on %s: %w", prof.Name, err)
	}
	rw, cw, err := calibrateSwarpWorks(anchor, prof.Platform.CoreSpeed, cores, paperLambda, [2]float64{})
	if err != nil {
		return nil, err
	}
	return swarpWithWorks(pipelines, cores, rw, cw), nil
}

// paperLambda is the paper's PFS-characterized λ_io pair (resample,
// combine), reused for every storage mode.
var paperLambda = [2]float64{calib.LambdaIOResample, calib.LambdaIOCombine}

// calibrateSwarpWorks applies Eq. 3 (Eq. 4 when both α are 0) to the
// anchor run's mean resample and combine times at the given core count.
// lambda and alpha are (resample, combine) pairs.
func calibrateSwarpWorks(anchor *testbed.Result, coreSpeed units.FlopRate, cores int, lambda, alpha [2]float64) (resample, combine units.Flops, err error) {
	tasks := [2]string{"resample", "combine"}
	obs := make([]calib.Observation, len(tasks))
	for i, name := range tasks {
		obs[i] = calib.Observation{TaskName: name, Cores: cores, Time: anchor.TaskMean(name),
			LambdaIO: lambda[i], Alpha: alpha[i]}
	}
	cal, err := calib.FromObservations(obs, coreSpeed)
	if err != nil {
		return 0, 0, err
	}
	if resample, err = cal.Work(tasks[0]); err != nil {
		return 0, 0, err
	}
	if combine, err = cal.Work(tasks[1]); err != nil {
		return 0, 0, err
	}
	return resample, combine, nil
}

// runPoints fans one simulation run per element of ps across o.Jobs
// workers (internal/runner) and returns the results in point order. Each
// point function builds its own simulator/testbed state, so results — and
// therefore every table row assembled from them — are bit-identical to a
// serial loop at any Jobs value.
func runPoints[P, R any](o Options, ps []P, fn func(P) (R, error)) ([]R, error) {
	return runner.Map(context.TODO(), o.Jobs, len(ps), func(i int) (R, error) { return fn(ps[i]) })
}

// --- formatting helpers ---------------------------------------------------

func fsec(v float64) string { return fmt.Sprintf("%.2f", v) }

func fsecStd(mean, std float64) string { return fmt.Sprintf("%.2f ± %.2f", mean, std) }

func fpct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

func ffrac(q float64) string { return fmt.Sprintf("%.0f%%", 100*q) }

func fbw(v float64) string { return units.Bandwidth(v).String() }
