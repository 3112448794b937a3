// Package placement implements data-placement policies deciding which
// files go to the burst buffer and which stay on the parallel file system.
//
// The paper's experiments sweep the *fraction* of input files staged into
// the BB (Figs. 4, 5, 10, 13, 14); NewFraction reproduces that policy. The
// remaining constructors implement the heuristic space the paper names as
// future work — greedy-by-size, fanout-priority, and critical-path-aware
// selection under a capacity budget — exercised by the placement ablation
// benchmark.
package placement

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"bbwfsim/internal/exec"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/storage"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

// Set sends a fixed set of files to the burst buffer: stage-in files in the
// set are staged, task outputs in the set are written to the BB. It
// implements exec.Placement.
//
// Membership is by file ID. A set built from a workflow holds it per file
// index, so the workflow's own files answer without hashing; any other
// file (exec's side-workflow files, a file of another workflow with the
// same IDs) answers by looking its ID up in the set's workflow. A set built
// from an explicit list keeps the IDs sorted.
type Set struct {
	name string
	wf   *workflow.Workflow // the workflow whose files in covers; nil for an ID list
	in   []bool             // in[f.Index()-base]: wf's file f goes to the BB
	base int                // Index() of wf's first file
	ids  []string           // explicit list: sorted, distinct
}

var _ exec.Placement = (*Set)(nil)

// newSet returns an empty set over wf's files.
func newSet(name string, wf *workflow.Workflow) *Set {
	s := &Set{name: name, wf: wf, in: make([]bool, len(wf.Files()))}
	if len(s.in) > 0 {
		s.base = wf.Files()[0].Index()
	}
	return s
}

// add sends f, one of the files s indexes, to the BB.
func (s *Set) add(f *workflow.File) { s.in[f.Index()-s.base] = true }

// has reports whether the policy sends f to the BB: one of the files s
// indexes by its index, any other file by its ID.
func (s *Set) has(f *workflow.File) bool {
	if i := f.Index() - s.base; s.wf != nil && i >= 0 && i < len(s.in) && s.wf.Files()[i] == f {
		return s.in[i]
	}
	return s.Contains(f.ID())
}

// members returns the IDs of the files the policy sends to the BB.
func (s *Set) members() []string {
	if s.wf == nil {
		return s.ids
	}
	var ids []string
	for i, in := range s.in {
		if in {
			ids = append(ids, s.wf.Files()[i].ID())
		}
	}
	return ids
}

// Name describes the policy (for reports).
func (s *Set) Name() string { return s.name }

// Contains reports whether the policy sends file id to the BB.
func (s *Set) Contains(id string) bool {
	if s.wf == nil {
		_, found := slices.BinarySearch(s.ids, id)
		return found
	}
	f := s.wf.File(id)
	return f != nil && f.Index()-s.base < len(s.in) && s.in[f.Index()-s.base]
}

// Count returns the number of files sent to the BB.
func (s *Set) Count() int { return len(s.members()) }

// BBBytes returns the total size this policy puts on the BB.
func (s *Set) BBBytes(wf *workflow.Workflow) units.Bytes {
	var total units.Bytes
	for _, id := range s.members() {
		if f := wf.File(id); f != nil {
			total += f.Size()
		}
	}
	return total
}

// StageTarget implements exec.Placement.
func (s *Set) StageTarget(f *workflow.File, sys *storage.System, node *platform.Node) storage.Service {
	if s.has(f) {
		return sys.BBFor(node)
	}
	return nil
}

// OutputTarget implements exec.Placement.
func (s *Set) OutputTarget(_ *workflow.Task, f *workflow.File, sys *storage.System, node *platform.Node) storage.Service {
	if s.has(f) {
		return sys.BBFor(node)
	}
	return nil
}

// NewExplicit builds a policy from an explicit list of file IDs.
func NewExplicit(name string, ids []string) *Set {
	sorted := slices.Clone(ids)
	slices.Sort(sorted)
	return &Set{name: name, ids: slices.Compact(sorted)}
}

// AllBB sends every file to the burst buffer.
func AllBB(wf *workflow.Workflow) *Set {
	s := newSet("all-bb", wf)
	for i := range s.in {
		s.in[i] = true
	}
	return s
}

// AllPFS keeps every file on the PFS (equivalent to exec.PFSOnly, provided
// for symmetry in sweeps).
func AllPFS() *Set {
	return &Set{name: "all-pfs"}
}

// stageable returns the files eligible for staging — workflow inputs and
// outputs of stage-in tasks — in insertion order.
func stageable(wf *workflow.Workflow) []*workflow.File {
	var files []*workflow.File
	for _, f := range wf.Files() {
		if f.IsInput() || (f.Producer() != nil && f.Producer().Kind() == workflow.KindStageIn) {
			files = append(files, f)
		}
	}
	return files
}

// intermediates returns files produced by compute tasks and consumed by at
// least one task, in insertion order.
func intermediates(wf *workflow.Workflow) []*workflow.File {
	var files []*workflow.File
	for _, f := range wf.Files() {
		if f.Producer() != nil && f.Producer().Kind() == workflow.KindCompute && len(f.Consumers()) > 0 {
			files = append(files, f)
		}
	}
	return files
}

// NewFraction stages the first ceil(q·N) of the workflow's N stageable
// input files into the burst buffer (the paper's x-axis on Figs. 4, 5, 10,
// 13, 14). If intermediatesToBB is set, every intermediate file also goes
// to the BB (the "BB" series of Fig. 5); otherwise intermediates go to the
// PFS. q outside [0,1] is an error.
func NewFraction(wf *workflow.Workflow, q float64, intermediatesToBB bool) (*Set, error) {
	if q < 0 || q > 1 || math.IsNaN(q) {
		return nil, fmt.Errorf("placement: fraction %g outside [0,1]", q)
	}
	s := newSet("", wf)
	files := stageable(wf)
	// Stride selection: pick ceil(q·N) files spread evenly across the
	// input list, so a 50% staging touches every workflow branch rather
	// than fully staging the first half of the branches.
	picked := 0
	for i, f := range files {
		if int(math.Ceil(q*float64(i+1))) > picked {
			s.add(f)
			picked++
		}
	}
	if intermediatesToBB {
		for _, f := range intermediates(wf) {
			s.add(f)
		}
		// Terminal outputs follow the intermediates' destination, matching
		// the experimental setup where the whole scratch area is one mount.
		for _, f := range wf.Files() {
			if f.Producer() != nil && f.Producer().Kind() == workflow.KindCompute && len(f.Consumers()) == 0 {
				s.add(f)
			}
		}
	}
	s.name = fmt.Sprintf("fraction-%0.2f", q)
	if intermediatesToBB {
		s.name += "+intermediates"
	}
	return s, nil
}

// candidate scoring for the budgeted heuristics: every file that is read or
// written during execution is a candidate.
func candidates(wf *workflow.Workflow) []*workflow.File {
	var files []*workflow.File
	for _, f := range wf.Files() {
		if len(f.Consumers()) > 0 || f.Producer() != nil {
			files = append(files, f)
		}
	}
	return files
}

// pick fills the budget greedily with wf's files in the given order
// (stable).
func pick(name string, wf *workflow.Workflow, files []*workflow.File, budget units.Bytes) *Set {
	s := newSet(name, wf)
	var used units.Bytes
	for _, f := range files {
		if budget > 0 && used+f.Size() > budget {
			continue
		}
		s.add(f)
		used += f.Size()
	}
	return s
}

// NewSizeGreedy fills the burst buffer budget preferring small files first
// (smallest=true) or large files first. Small-first maximizes the number of
// per-file latency hits avoided; large-first maximizes bytes served at BB
// bandwidth.
func NewSizeGreedy(wf *workflow.Workflow, budget units.Bytes, smallest bool) *Set {
	files := append([]*workflow.File{}, candidates(wf)...)
	sort.SliceStable(files, func(i, j int) bool {
		if smallest {
			return files[i].Size() < files[j].Size()
		}
		return files[i].Size() > files[j].Size()
	})
	name := "size-greedy-large"
	if smallest {
		name = "size-greedy-small"
	}
	return pick(name, wf, files, budget)
}

// NewFanoutGreedy fills the budget preferring files with the most
// consumers: a file read k times saves k transfers when resident on the BB.
func NewFanoutGreedy(wf *workflow.Workflow, budget units.Bytes) *Set {
	files := append([]*workflow.File{}, candidates(wf)...)
	sort.SliceStable(files, func(i, j int) bool {
		fi, fj := len(files[i].Consumers()), len(files[j].Consumers())
		if fi != fj {
			return fi > fj
		}
		return files[i].Size() < files[j].Size()
	})
	return pick("fanout-greedy", wf, files, budget)
}

// NewCriticalPath fills the budget preferring files touched by tasks on the
// workflow's critical path (weighted by dur), then everything else.
func NewCriticalPath(wf *workflow.Workflow, budget units.Bytes, dur func(*workflow.Task) float64) (*Set, error) {
	path, _, err := wf.CriticalPath(dur)
	if err != nil {
		return nil, err
	}
	onPath := map[*workflow.Task]bool{}
	for _, t := range path {
		onPath[t] = true
	}
	critical := func(f *workflow.File) bool {
		if f.Producer() != nil && onPath[f.Producer()] {
			return true
		}
		for _, c := range f.Consumers() {
			if onPath[c] {
				return true
			}
		}
		return false
	}
	files := append([]*workflow.File{}, candidates(wf)...)
	sort.SliceStable(files, func(i, j int) bool {
		ci, cj := critical(files[i]), critical(files[j])
		if ci != cj {
			return ci
		}
		return false
	})
	return pick("critical-path", wf, files, budget), nil
}
