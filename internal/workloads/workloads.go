// Package workloads generates synthetic workflow structures — chains,
// fork-joins, reduction trees, broadcasts, and random layered DAGs — in
// configurable file regimes (many small files vs. few large files).
//
// The paper motivates exactly this axis: "some tasks may generate small
// numbers of very large files, while others may generate large numbers of
// very small files. Such analysis may unveil limitations of current BB
// solutions" (Section I), and its striped-mode findings hinge on the 1:N
// versus N:1 access-pattern distinction. These generators let the
// experiments sweep structure and file regime orthogonally.
package workloads

import (
	"fmt"
	"math/rand"
	"strconv"

	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

// FileRegime describes how much data an edge carries and in how many
// pieces.
type FileRegime struct {
	// Count is the number of files per producer→consumer edge.
	Count int
	// Size is each file's size.
	Size units.Bytes
}

// The two regimes the paper contrasts: the same 256 MiB per edge, split
// into 64 small files or a single large one.
var (
	ManySmall = FileRegime{Count: 64, Size: 4 * units.MiB}
	FewLarge  = FileRegime{Count: 1, Size: 256 * units.MiB}
)

// Params configures task properties shared by all patterns.
type Params struct {
	// Work is each task's sequential compute work (default 60 s at Cori
	// core speed).
	Work units.Flops
	// Cores is each task's core request (default 1).
	Cores int
	// LambdaIO annotates tasks for calibration (default 0.2).
	LambdaIO float64
	// Regime is the per-edge file regime (default FewLarge).
	Regime FileRegime
}

func (p *Params) withDefaults() Params {
	q := *p
	if q.Work == 0 { //bbvet:allow float-compare -- zero is the "use default" sentinel for an unset parameter
		q.Work = units.Flops(60 * 36.80e9)
	}
	if q.Cores == 0 {
		q.Cores = 1
	}
	if q.LambdaIO == 0 { //bbvet:allow float-compare -- zero is the "use default" sentinel for an unset parameter
		q.LambdaIO = 0.2
	}
	if q.Regime.Count == 0 {
		q.Regime = FewLarge
	}
	return q
}

// builder accumulates a pattern.
type builder struct {
	w   *workflow.Workflow
	p   Params
	seq int
}

func newBuilder(name string, p Params) *builder {
	return &builder{w: workflow.New(name), p: p.withDefaults()}
}

// edge creates the regime's files for a producer→consumer edge and returns
// their IDs.
func (b *builder) edge(label string) []string {
	ids := make([]string, 0, b.p.Regime.Count)
	for i := 0; i < b.p.Regime.Count; i++ {
		id := label + "_f" + workflow.PadInt(i, 3)
		b.w.MustAddFile(id, b.p.Regime.Size)
		ids = append(ids, id)
	}
	return ids
}

func (b *builder) task(id, name string, inputs, outputs []string) {
	b.w.MustAddTask(workflow.TaskSpec{
		ID: id, Name: name,
		Work: b.p.Work, Cores: b.p.Cores, LambdaIO: b.p.LambdaIO,
		Inputs: inputs, Outputs: outputs,
	})
}

// Chain builds a linear pipeline of n tasks, each feeding the next through
// one edge of files (the paper's SWarp pipeline shape).
func Chain(n int, p Params) (*workflow.Workflow, error) {
	if n < 1 {
		return nil, fmt.Errorf("workloads: chain length %d", n)
	}
	b := newBuilder("chain-"+strconv.Itoa(n), p)
	var prev []string
	for i := 0; i < n; i++ {
		var out []string
		if i < n-1 {
			out = b.edge("e" + workflow.PadInt(i, 3))
		}
		b.task("t"+workflow.PadInt(i, 3), "stage", prev, out)
		prev = out
	}
	return b.w, nil
}

// ForkJoin builds source → width parallel workers → sink: the 1:N then N:1
// pattern in one workflow.
func ForkJoin(width int, p Params) (*workflow.Workflow, error) {
	if width < 1 {
		return nil, fmt.Errorf("workloads: fork-join width %d", width)
	}
	b := newBuilder("forkjoin-"+strconv.Itoa(width), p)
	var sourceOuts, sinkIns []string
	branchIn := make([][]string, width)
	branchOut := make([][]string, width)
	for i := 0; i < width; i++ {
		branchIn[i] = b.edge("fork" + workflow.PadInt(i, 3))
		sourceOuts = append(sourceOuts, branchIn[i]...)
	}
	b.task("source", "source", nil, sourceOuts)
	for i := 0; i < width; i++ {
		branchOut[i] = b.edge("join" + workflow.PadInt(i, 3))
		sinkIns = append(sinkIns, branchOut[i]...)
		b.task("worker"+workflow.PadInt(i, 3), "worker", branchIn[i], branchOut[i])
	}
	b.task("sink", "sink", sinkIns, nil)
	return b.w, nil
}

// ReduceTree builds a binary in-tree: `leaves` source tasks reduced
// pairwise to a single root (the N:1 aggregation pattern).
func ReduceTree(leaves int, p Params) (*workflow.Workflow, error) {
	if leaves < 2 {
		return nil, fmt.Errorf("workloads: reduce tree needs ≥2 leaves, got %d", leaves)
	}
	b := newBuilder("reduce-"+strconv.Itoa(leaves), p)
	level := make([][]string, 0, leaves)
	for i := 0; i < leaves; i++ {
		id := "leaf" + workflow.PadInt(i, 3)
		out := b.edge(id)
		b.task(id, "leaf", nil, out)
		level = append(level, out)
	}
	round := 0
	for len(level) > 1 {
		var next [][]string
		for i := 0; i+1 < len(level); i += 2 {
			var in []string
			in = append(in, level[i]...)
			in = append(in, level[i+1]...)
			var out []string
			if len(level) > 2 {
				out = b.edge("r" + strconv.Itoa(round) + "_" + workflow.PadInt(i/2, 3))
			}
			b.task("reduce"+strconv.Itoa(round)+"_"+workflow.PadInt(i/2, 3), "reduce", in, out)
			if out != nil {
				next = append(next, out)
			}
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
		round++
	}
	return b.w, nil
}

// Broadcast builds one producer whose single edge is read by `width`
// consumers — the shared-file N:1 access pattern striped burst buffers are
// optimized for.
func Broadcast(width int, p Params) (*workflow.Workflow, error) {
	if width < 1 {
		return nil, fmt.Errorf("workloads: broadcast width %d", width)
	}
	b := newBuilder("broadcast-"+strconv.Itoa(width), p)
	shared := b.edge("shared")
	b.task("producer", "producer", nil, shared)
	for i := 0; i < width; i++ {
		b.task("reader"+workflow.PadInt(i, 3), "reader", shared, nil)
	}
	return b.w, nil
}

// RandomLayered builds a seeded random layered DAG: `layers` levels of
// `width` tasks, where each non-source task consumes the edges of a random
// subset of the previous layer (acyclic by construction).
func RandomLayered(seed int64, layers, width int, density float64, p Params) (*workflow.Workflow, error) {
	if layers < 1 || width < 1 {
		return nil, fmt.Errorf("workloads: layered %d×%d", layers, width)
	}
	if density < 0 || density > 1 {
		return nil, fmt.Errorf("workloads: density %g outside [0,1]", density)
	}
	rng := rand.New(rand.NewSource(seed))
	b := newBuilder("layered-"+strconv.Itoa(layers)+"x"+strconv.Itoa(width), p)
	prevOut := make([][]string, 0, width)
	for l := 0; l < layers; l++ {
		curOut := make([][]string, 0, width)
		for i := 0; i < width; i++ {
			var in []string
			if l > 0 {
				picked := false
				for j, outs := range prevOut {
					if rng.Float64() < density {
						in = append(in, outs...)
						picked = true
						_ = j
					}
				}
				if !picked { // keep the graph connected
					in = append(in, prevOut[rng.Intn(len(prevOut))]...)
				}
			}
			var out []string
			if l < layers-1 {
				out = b.edge("l" + workflow.PadInt(l, 2) + "_" + workflow.PadInt(i, 3))
			}
			b.task("t"+workflow.PadInt(l, 2)+"_"+workflow.PadInt(i, 3), "layer"+workflow.PadInt(l, 2), in, out)
			curOut = append(curOut, out)
		}
		prevOut = curOut
	}
	return b.w, nil
}

// Patterns returns the named pattern catalog used by the structure
// experiment, each instantiated at a comparable scale.
func Patterns(p Params) (map[string]*workflow.Workflow, error) {
	out := map[string]*workflow.Workflow{}
	add := func(name string, w *workflow.Workflow, err error) error {
		if err != nil {
			return err
		}
		out[name] = w
		return nil
	}
	chain, err := Chain(8, p)
	if err := add("chain", chain, err); err != nil {
		return nil, err
	}
	fj, err := ForkJoin(16, p)
	if err := add("fork-join", fj, err); err != nil {
		return nil, err
	}
	rt, err := ReduceTree(16, p)
	if err := add("reduce-tree", rt, err); err != nil {
		return nil, err
	}
	bc, err := Broadcast(16, p)
	if err := add("broadcast", bc, err); err != nil {
		return nil, err
	}
	rl, err := RandomLayered(42, 4, 8, 0.3, p)
	if err := add("random-layered", rl, err); err != nil {
		return nil, err
	}
	return out, nil
}
