package placement

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"bbwfsim/internal/genomes"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/sim"
	"bbwfsim/internal/storage"
	"bbwfsim/internal/swarp"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

func testSystem(t *testing.T, cfg platform.Config) *storage.System {
	t.Helper()
	e := sim.NewEngine()
	p, err := platform.New(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return storage.NewSystem(p, nil)
}

func TestFractionCounts(t *testing.T) {
	wf := swarp.MustNew(swarp.Params{Pipelines: 1}) // 32 stageable files
	for _, tc := range []struct {
		q    float64
		want int
	}{
		{0, 0}, {0.25, 8}, {0.5, 16}, {0.75, 24}, {1, 32},
	} {
		pol, err := NewFraction(wf, tc.q, false)
		if err != nil {
			t.Fatal(err)
		}
		if pol.Count() != tc.want {
			t.Errorf("fraction %.2f: count = %d, want %d", tc.q, pol.Count(), tc.want)
		}
	}
}

func TestFractionStrideSpreads(t *testing.T) {
	// With 50% staged, both halves of the file list must be represented.
	wf := swarp.MustNew(swarp.Params{Pipelines: 2})
	pol := mustFraction(t, wf, 0.5, false)
	var stageables []*workflow.File
	for _, f := range wf.Files() {
		if f.IsInput() || (f.Producer() != nil && f.Producer().Kind() == workflow.KindStageIn) {
			stageables = append(stageables, f)
		}
	}
	firstHalf, secondHalf := 0, 0
	for i, f := range stageables {
		if pol.Contains(f.ID()) {
			if i < len(stageables)/2 {
				firstHalf++
			} else {
				secondHalf++
			}
		}
	}
	if firstHalf == 0 || secondHalf == 0 {
		t.Errorf("stride selection not spread: %d / %d", firstHalf, secondHalf)
	}
}

func TestFractionValidation(t *testing.T) {
	wf := swarp.MustNew(swarp.Params{Pipelines: 1})
	for _, q := range []float64{-0.1, 1.5, math.NaN()} {
		if _, err := NewFraction(wf, q, false); err == nil {
			t.Errorf("fraction %v accepted", q)
		}
	}
}

func TestFractionIntermediates(t *testing.T) {
	wf := swarp.MustNew(swarp.Params{Pipelines: 1})
	with := mustFraction(t, wf, 0, true)
	without := mustFraction(t, wf, 0, false)
	if without.Count() != 0 {
		t.Errorf("q=0 without intermediates: count = %d", without.Count())
	}
	// 32 intermediates + 2 terminal outputs.
	if with.Count() != 34 {
		t.Errorf("q=0 with intermediates: count = %d, want 34", with.Count())
	}
	if !with.Contains("p000_rimg00.fits") {
		t.Error("intermediate not selected")
	}
	if !with.Contains("p000_coadd.fits") {
		t.Error("terminal output not selected")
	}
}

func TestStageAndOutputTargets(t *testing.T) {
	wf := swarp.MustNew(swarp.Params{Pipelines: 1})
	sys := testSystem(t, platform.Cori(1, platform.BBPrivate))
	node := sys.Platform().Node(0)
	pol := mustFraction(t, wf, 1, true)
	in := wf.File("p000_img00.fits")
	if svc := pol.StageTarget(in, sys, node); svc != sys.AllBBs()[0] {
		t.Errorf("StageTarget = %v, want shared BB", svc)
	}
	inter := wf.File("p000_rimg00.fits")
	if svc := pol.OutputTarget(wf.Task("resample_000"), inter, sys, node); svc != sys.AllBBs()[0] {
		t.Errorf("OutputTarget = %v, want shared BB", svc)
	}
	none := mustFraction(t, wf, 0, false)
	if svc := none.StageTarget(in, sys, node); svc != nil {
		t.Errorf("StageTarget under all-PFS = %v, want nil", svc)
	}
}

func TestOnNodeTarget(t *testing.T) {
	wf := swarp.MustNew(swarp.Params{Pipelines: 1})
	sys := testSystem(t, platform.Summit(2))
	n1 := sys.Platform().Node(1)
	pol := mustFraction(t, wf, 1, false)
	f := wf.File("p000_img00.fits")
	if svc := pol.StageTarget(f, sys, n1); svc != sys.BBFor(n1) {
		t.Errorf("StageTarget on summit = %v, want node-local BB of n1", svc)
	}
}

func TestAllBBAndAllPFS(t *testing.T) {
	wf := swarp.MustNew(swarp.Params{Pipelines: 1})
	all := AllBB(wf)
	if all.Count() != len(wf.Files()) {
		t.Errorf("AllBB count = %d, want %d", all.Count(), len(wf.Files()))
	}
	if AllPFS().Count() != 0 {
		t.Error("AllPFS selected files")
	}
	if all.Name() != "all-bb" || AllPFS().Name() != "all-pfs" {
		t.Error("policy names wrong")
	}
}

func TestSizeGreedyRespectsBudget(t *testing.T) {
	wf := genomes.MustNew(genomes.Params{Chromosomes: 2})
	budget := 500 * units.MiB
	for _, smallest := range []bool{true, false} {
		pol := NewSizeGreedy(wf, budget, smallest)
		if pol.BBBytes(wf) > budget {
			t.Errorf("smallest=%v: BBBytes %v exceeds budget %v", smallest, pol.BBBytes(wf), budget)
		}
		if pol.Count() == 0 {
			t.Errorf("smallest=%v: nothing selected", smallest)
		}
	}
	// Small-first fits more files than large-first.
	small := NewSizeGreedy(wf, budget, true)
	large := NewSizeGreedy(wf, budget, false)
	if small.Count() < large.Count() {
		t.Errorf("small-first picked %d files, large-first %d", small.Count(), large.Count())
	}
}

func TestFanoutGreedyPrefersSharedFiles(t *testing.T) {
	wf := genomes.MustNew(genomes.Params{Chromosomes: 2})
	// The sifted files (14 consumers each, 20 MiB) are the highest-fanout
	// files that fit a small budget; the population files (4 consumers)
	// come next. One-consumer files must not displace them.
	pol := NewFanoutGreedy(wf, 60*units.MiB)
	if !pol.Contains("chr01_sifted.txt") || !pol.Contains("chr02_sifted.txt") {
		t.Error("fanout policy skipped the highest-fanout fitting files")
	}
	if !pol.Contains("pop_0.txt") {
		t.Error("fanout policy skipped the population files")
	}
}

func TestCriticalPathPolicy(t *testing.T) {
	wf := genomes.MustNew(genomes.Params{Chromosomes: 2})
	dur := func(task *workflow.Task) float64 { return float64(task.Work()) }
	pol, err := NewCriticalPath(wf, 2*units.GiB, dur)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Count() == 0 {
		t.Error("critical-path policy selected nothing")
	}
	if pol.BBBytes(wf) > 2*units.GiB {
		t.Error("critical-path policy exceeded budget")
	}
	// At least one file of the critical path's tasks must be selected.
	path, _, err := wf.CriticalPath(dur)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, task := range path {
		for _, f := range task.Outputs() {
			if pol.Contains(f.ID()) {
				found = true
			}
		}
	}
	if !found {
		t.Error("no critical-path file selected")
	}
}

func TestExplicitPolicy(t *testing.T) {
	pol := NewExplicit("mine", []string{"a", "b"})
	if !pol.Contains("a") || pol.Contains("c") || pol.Count() != 2 {
		t.Error("explicit policy membership wrong")
	}
}

// Property: for any q, the fraction policy stages exactly ceil(q·N) files,
// all of them stageable. (Stride selection is deliberately not nested
// across fractions, so no subset property is asserted.)
func TestFractionCountQuick(t *testing.T) {
	wf := genomes.MustNew(genomes.Params{Chromosomes: 2})
	n := 0
	for _, f := range wf.Files() {
		if f.IsInput() {
			n++
		}
	}
	f := func(rawQ uint16) bool {
		q := float64(rawQ%1001) / 1000
		p := mustFraction(t, wf, q, false)
		if p.Count() != int(math.Ceil(q*float64(n))) {
			return false
		}
		for _, file := range wf.Files() {
			if p.Contains(file.ID()) && !file.IsInput() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: budgeted policies never exceed their budget.
func TestBudgetRespectedQuick(t *testing.T) {
	wf := genomes.MustNew(genomes.Params{Chromosomes: 1})
	f := func(rawBudget uint32, kind uint8) bool {
		budget := units.Bytes(rawBudget % 4_000_000_000)
		var pol *Set
		switch kind % 3 {
		case 0:
			pol = NewSizeGreedy(wf, budget, true)
		case 1:
			pol = NewSizeGreedy(wf, budget, false)
		default:
			pol = NewFanoutGreedy(wf, budget)
		}
		return budget == 0 || pol.BBBytes(wf) <= budget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

var _ = fmt.Sprintf // keep fmt for debugging additions

func mustFraction(t *testing.T, wf *workflow.Workflow, q float64, intermediatesToBB bool) *Set {
	t.Helper()
	s, err := NewFraction(wf, q, intermediatesToBB)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
