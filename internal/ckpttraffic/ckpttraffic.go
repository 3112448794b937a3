// Package ckpttraffic injects the workload burst buffers were originally
// built for — periodic checkpoint traffic from HPC codes (paper Section
// II: "the BB concept was first developed to improve checkpointing
// performance") — so the simulator can study how checkpoint I/O from
// co-located jobs interferes with workflow executions.
//
// An Injector writes one checkpoint of the configured size per compute
// node every Interval seconds, to the burst buffer or the PFS. Each node
// keeps a single checkpoint: when a new one completes, the previous one is
// evicted, matching the rotating behavior of real checkpoint libraries.
// The injector implements exec.Background and stops with the workflow.
package ckpttraffic

import (
	"fmt"

	"bbwfsim/internal/exec"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/storage"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

// Params configures an injector.
type Params struct {
	// Interval is the time between checkpoint waves, in seconds (> 0).
	Interval float64
	// Size is each node's per-wave checkpoint volume (> 0).
	Size units.Bytes
	// ToBB targets the burst buffer; otherwise the PFS.
	ToBB bool
	// FirstWave delays the initial wave (defaults to Interval).
	FirstWave float64
}

// Injector is a periodic checkpoint-traffic generator.
type Injector struct {
	params Params

	// Waves counts completed per-node checkpoints; BytesWritten totals
	// their volume.
	Waves        int
	BytesWritten units.Bytes

	sys  *storage.System
	side *workflow.Workflow // the run's side workflow, which holds the checkpoint files
	prev map[*platform.Node]*workflow.File
}

var _ exec.Background = (*Injector)(nil)

// New validates the parameters and returns an injector.
func New(p Params) (*Injector, error) {
	if p.Interval <= 0 {
		return nil, fmt.Errorf("checkpoint: interval must be positive, got %g", p.Interval)
	}
	if p.Size <= 0 {
		return nil, fmt.Errorf("checkpoint: size must be positive, got %v", p.Size)
	}
	if p.FirstWave < 0 {
		return nil, fmt.Errorf("checkpoint: negative first wave %g", p.FirstWave)
	}
	if p.FirstWave == 0 { //bbvet:allow float-compare -- zero is the documented "use default" sentinel, never a computed value
		p.FirstWave = p.Interval
	}
	return &Injector{
		params: p,
		prev:   map[*platform.Node]*workflow.File{},
	}, nil
}

// Start implements exec.Background: it schedules the first wave.
func (i *Injector) Start(sys *storage.System, side *workflow.Workflow) {
	i.sys, i.side = sys, side
	sys.Platform().Engine().After(i.params.FirstWave, i.wave)
}

// wave writes one checkpoint per node, then schedules the next wave. Down
// nodes skip their wave — a failed node cannot emit checkpoint traffic —
// and resume with the first wave after their repair.
func (i *Injector) wave() {
	for _, node := range i.sys.Platform().Nodes() {
		if node.Down() {
			continue
		}
		node := node
		target := i.target(node)
		// The side workflow's file count numbers the file, so IDs stay
		// unique beside other injectors' and exec's snapshot files.
		f := i.side.MustAddFile(fmt.Sprintf("traffic-%s-%06d", node.Name(), len(i.side.Files())), i.params.Size)
		_, err := i.sys.Manager().Write(node, f, target, storage.Func(func() {
			i.Waves++
			i.BytesWritten += i.params.Size
			// Rotate: drop the node's previous checkpoint.
			if old := i.prev[node]; old != nil {
				// The old replica may live on a different service than the
				// new one (not in practice, but stay defensive).
				for _, svc := range i.sys.Registry().Locations(old) {
					_ = i.sys.Manager().Evict(old, svc)
				}
			}
			i.prev[node] = f
		}), 0)
		if err != nil {
			// A full target skips this node's wave rather than failing the
			// whole simulation: real checkpoint libraries degrade the same
			// way (drop to the next level of the hierarchy).
			continue
		}
	}
	i.sys.Platform().Engine().After(i.params.Interval, i.wave)
}

func (i *Injector) target(node *platform.Node) storage.Service {
	if i.params.ToBB {
		return i.sys.BBFor(node)
	}
	return i.sys.PFS()
}
