package workloads

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

// ScaleSpec configures the WfBench-style scale generator (arXiv:2210.03170):
// synthetic workflows of arbitrary, exact task counts whose structure
// resembles real scientific workflows, for measuring the simulator's own
// ceiling rather than any application result.
type ScaleSpec struct {
	// Topology selects the DAG shape: "chain" (one linear pipeline),
	// "forkjoin" (chained source→workers→sink blocks), or "montage"
	// (chained mosaic blocks: project level, overlap-fit level, an N:1
	// concat, a 1:N background broadcast, and an add step — the Montage
	// shape WfBench models).
	Topology string
	// Tasks is the exact number of tasks to generate (≥ 1).
	Tasks int
	// Width bounds the parallel level width of forkjoin/montage blocks.
	// Defaults to 256 — wide enough to saturate any preset platform,
	// narrow enough that the ready queue stays far from O(Tasks).
	Width int
	// Seed drives the deterministic ±20% per-task work jitter.
	Seed int64
	// FileSize is the size of every produced file (default 16 MiB).
	FileSize units.Bytes
	// Work is the mean sequential compute work per task (default 5 s at
	// the Cori core speed, kept small so million-task runs stay short).
	Work units.Flops
}

func (s ScaleSpec) withDefaults() ScaleSpec {
	q := s
	if q.Width <= 0 {
		q.Width = 256
	}
	if q.FileSize <= 0 {
		q.FileSize = 16 * units.MiB
	}
	if q.Work == 0 { //bbvet:allow float-compare -- zero is the "use default" sentinel for an unset parameter
		q.Work = units.Flops(5 * 36.80e9)
	}
	return q
}

// ParseScaleSpec parses "<topology>:<tasks>[:<width>]", e.g. "chain:1000000"
// or "montage:100000:512" — the syntax of bbsim's -gen flag.
func ParseScaleSpec(s string) (ScaleSpec, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return ScaleSpec{}, fmt.Errorf("workloads: scale spec %q: want <topology>:<tasks>[:<width>]", s)
	}
	spec := ScaleSpec{Topology: parts[0]}
	n, err := strconv.Atoi(parts[1])
	if err != nil || n < 1 {
		return ScaleSpec{}, fmt.Errorf("workloads: scale spec %q: bad task count %q", s, parts[1])
	}
	spec.Tasks = n
	if len(parts) == 3 {
		w, err := strconv.Atoi(parts[2])
		if err != nil || w < 1 {
			return ScaleSpec{}, fmt.Errorf("workloads: scale spec %q: bad width %q", s, parts[2])
		}
		spec.Width = w
	}
	return spec, nil
}

// scaleGen carries generation state: the builder plus the jitter stream and
// the output files of the previous block, which the next block consumes so
// the whole workflow is one connected DAG.
type scaleGen struct {
	b    *builder
	rng  *rand.Rand
	prev []string // files linking the previous block to the next
	seq  int
}

// Scale generates a workflow with exactly spec.Tasks tasks. The same spec
// always yields the same workflow, bit for bit.
func Scale(spec ScaleSpec) (*workflow.Workflow, error) {
	spec = spec.withDefaults()
	if spec.Tasks < 1 {
		return nil, fmt.Errorf("workloads: scale task count %d", spec.Tasks)
	}
	name := "scale-" + spec.Topology + "-" + strconv.Itoa(spec.Tasks)
	g := &scaleGen{
		b:   newBuilder(name, Params{Work: spec.Work, Regime: FileRegime{Count: 1, Size: spec.FileSize}}),
		rng: rand.New(rand.NewSource(spec.Seed)),
	}
	remaining := spec.Tasks
	for remaining > 0 {
		switch spec.Topology {
		case "chain":
			remaining -= g.chainBlock(remaining, false, spec)
		case "forkjoin":
			// A full block is source + width workers + sink. Shrink the last
			// block's width to land exactly on the budget; a remainder too
			// small for any block (< 3 tasks) degrades to a chain tail.
			if remaining < 3 {
				remaining -= g.chainBlock(remaining, false, spec)
				continue
			}
			w := min(spec.Width, remaining-2)
			remaining -= g.forkJoinBlock(w, remaining-(w+2) > 0, spec)
		case "montage":
			// A full block is 3w+2 tasks (project w, fit w, concat, bg w,
			// add). Degrade small remainders to fork-join, then chain.
			if remaining < 5 {
				remaining -= g.chainBlock(remaining, false, spec)
				continue
			}
			w := min(spec.Width, (remaining-2)/3)
			remaining -= g.montageBlock(w, remaining-(3*w+2) > 0, spec)
		default:
			return nil, fmt.Errorf("workloads: unknown scale topology %q (want chain, forkjoin, or montage)", spec.Topology)
		}
	}
	return g.b.w, nil
}

// work returns the next jittered task work: mean ±20%, deterministic in
// generation order.
func (g *scaleGen) work(spec ScaleSpec) units.Flops {
	return units.Flops(float64(spec.Work) * (0.8 + float64(0.4*g.rng.Float64())))
}

// task adds one task consuming in and producing out.
func (g *scaleGen) task(id, name string, in, out []string, spec ScaleSpec) {
	g.b.w.MustAddTask(workflow.TaskSpec{
		ID: id, Name: name,
		Work: g.work(spec), Cores: 1, LambdaIO: g.b.p.LambdaIO,
		Inputs: in, Outputs: out,
	})
}

// file registers one fresh file and returns its ID.
func (g *scaleGen) file(spec ScaleSpec) string {
	id := "f" + strconv.Itoa(g.seq)
	g.seq++
	g.b.w.MustAddFile(id, spec.FileSize)
	return id
}

// chainBlock emits n tasks in a line, consuming g.prev. When linked, the
// last task produces a file for the next block.
func (g *scaleGen) chainBlock(n int, linked bool, spec ScaleSpec) int {
	in := g.prev
	for i := 0; i < n; i++ {
		var out []string
		if i < n-1 || linked {
			out = []string{g.file(spec)}
		}
		g.task("t"+strconv.Itoa(g.b.seq), "stage", in, out, spec)
		g.b.seq++
		in = out
	}
	g.prev = in
	return n
}

// forkJoinBlock emits source → w workers → sink (w+2 tasks).
func (g *scaleGen) forkJoinBlock(w int, linked bool, spec ScaleSpec) int {
	blk := strconv.Itoa(g.b.seq)
	g.b.seq++
	forks := make([]string, w)
	for i := range forks {
		forks[i] = g.file(spec)
	}
	g.task("src"+blk, "source", g.prev, forks, spec)
	joins := make([]string, w)
	for i := 0; i < w; i++ {
		joins[i] = g.file(spec)
		g.task("w"+blk+"_"+strconv.Itoa(i), "worker", forks[i:i+1], joins[i:i+1], spec)
	}
	var out []string
	if linked {
		out = []string{g.file(spec)}
	}
	g.task("snk"+blk, "sink", joins, out, spec)
	g.prev = out
	return w + 2
}

// montageBlock emits one mosaic block (3w+2 tasks): w project tasks, w fit
// tasks each reading two adjacent project outputs (the overlap pattern), an
// N:1 concat, a 1:N broadcast to w background tasks, and an add step.
func (g *scaleGen) montageBlock(w int, linked bool, spec ScaleSpec) int {
	blk := strconv.Itoa(g.b.seq)
	g.b.seq++
	proj := make([]string, w)
	for i := 0; i < w; i++ {
		proj[i] = g.file(spec)
		g.task("proj"+blk+"_"+strconv.Itoa(i), "project", g.prev, proj[i:i+1], spec)
	}
	fits := make([]string, w)
	for i := 0; i < w; i++ {
		fits[i] = g.file(spec)
		in := []string{proj[i], proj[(i+1)%w]}
		if w == 1 {
			in = proj[:1]
		}
		g.task("fit"+blk+"_"+strconv.Itoa(i), "fit", in, fits[i:i+1], spec)
	}
	concat := g.file(spec)
	g.task("cat"+blk, "concat", fits, []string{concat}, spec)
	bgs := make([]string, w)
	for i := 0; i < w; i++ {
		bgs[i] = g.file(spec)
		g.task("bg"+blk+"_"+strconv.Itoa(i), "background", []string{concat}, bgs[i:i+1], spec)
	}
	var out []string
	if linked {
		out = []string{g.file(spec)}
	}
	g.task("add"+blk, "add", bgs, out, spec)
	g.prev = out
	return 3*w + 2
}
