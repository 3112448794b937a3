package placement

import (
	"fmt"
	"slices"
	"testing"

	"bbwfsim/internal/genomes"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/swarp"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

// TestMembershipIsByID: a set indexes its own workflow's files, but every
// file must answer exactly as it would in a by-ID map of the set's
// members — the DAG's own files, a side workflow numbered after them
// (holding copies of some DAG IDs and IDs of its own), a regenerated
// workflow with the same IDs at the same indices, one with the same IDs at
// shifted indices, and a file added to the DAG after the set was built.
// Count and BBBytes must agree with the map too, and so must an explicit
// set of the same IDs.
func TestMembershipIsByID(t *testing.T) {
	sys := testSystem(t, platform.Cori(1, platform.BBPrivate))
	node := sys.Platform().Node(0)
	bb := sys.BBFor(node)
	dur := func(task *workflow.Task) float64 { return float64(task.Work()) }
	for _, gen := range []struct {
		name string
		new  func() *workflow.Workflow
	}{
		{"swarp", func() *workflow.Workflow { return swarp.MustNew(swarp.Params{Pipelines: 2}) }},
		{"genomes", func() *workflow.Workflow { return genomes.MustNew(genomes.Params{Chromosomes: 2}) }},
	} {
		wf := gen.new()
		budget := units.Bytes(0)
		for _, f := range wf.Files() {
			budget += f.Size()
		}
		budget /= 3
		sets := []*Set{AllBB(wf), AllPFS(), NewSizeGreedy(wf, budget, true), NewSizeGreedy(wf, budget, false), NewFanoutGreedy(wf, budget)}
		for _, q := range []float64{0, 0.3, 0.5, 1} {
			sets = append(sets, mustFraction(t, wf, q, false), mustFraction(t, wf, q, true))
		}
		critical, err := NewCriticalPath(wf, budget, dur)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, critical)

		// Foreign files: a side workflow after the DAG's files, a regenerated
		// twin, and the DAG's IDs in reverse order at the twin's indices.
		files := wf.Files()
		side := workflow.NewFrom("side", len(files))
		for i, f := range files {
			if i%3 == 0 {
				side.MustAddFile(f.ID(), f.Size())
			}
			side.MustAddFile(fmt.Sprintf("side-%d", i), units.MiB)
		}
		reversed := workflow.New("reversed")
		for i := len(files) - 1; i >= 0; i-- {
			reversed.MustAddFile(files[i].ID(), 2*files[i].Size())
		}
		foreign := slices.Concat(side.Files(), gen.new().Files(), reversed.Files())

		for _, s := range sets {
			member := map[string]bool{}
			var want units.Bytes
			for _, f := range files {
				if s.Contains(f.ID()) {
					member[f.ID()] = true
					want += f.Size()
				}
			}
			ids := make([]string, 0, len(member))
			for _, f := range files {
				if member[f.ID()] {
					ids = append(ids, f.ID())
				}
			}
			explicit := NewExplicit("explicit", ids)
			if s.Count() != len(member) || explicit.Count() != len(member) {
				t.Errorf("%s/%s: Count %d, explicit %d, map %d", gen.name, s.Name(), s.Count(), explicit.Count(), len(member))
			}
			if s.BBBytes(wf) != want || explicit.BBBytes(wf) != want {
				t.Errorf("%s/%s: BBBytes %v, explicit %v, map %v", gen.name, s.Name(), s.BBBytes(wf), explicit.BBBytes(wf), want)
			}
			if got := s.BBBytes(reversed); got != 2*want {
				t.Errorf("%s/%s: BBBytes over the reversed twin %v, want %v", gen.name, s.Name(), got, 2*want)
			}
			for _, f := range slices.Concat(files, foreign) {
				for _, pol := range []*Set{s, explicit} {
					stage := pol.StageTarget(f, sys, node) == bb
					out := pol.OutputTarget(nil, f, sys, node) == bb
					if stage != member[f.ID()] || out != member[f.ID()] || pol.Contains(f.ID()) != member[f.ID()] {
						t.Errorf("%s/%s (%s): file %s #%d: stage %v, output %v, Contains %v, map %v", gen.name, s.Name(),
							pol.Name(), f.ID(), f.Index(), stage, out, pol.Contains(f.ID()), member[f.ID()])
					}
				}
			}
		}

		late := wf.MustAddFile("late", units.MiB)
		for _, s := range sets {
			if s.StageTarget(late, sys, node) != nil || s.Contains("late") {
				t.Errorf("%s/%s: a file added after the set was built is a member", gen.name, s.Name())
			}
		}
	}
}
