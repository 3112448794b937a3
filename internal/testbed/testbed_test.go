package testbed

import (
	"slices"
	"testing"

	"bbwfsim/internal/core"
	"bbwfsim/internal/stats"
	"bbwfsim/internal/swarp"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/workflow"
)

func swarpWF(pipelines, cores int) *workflow.Workflow {
	return swarp.MustNew(swarp.Params{
		Pipelines:    pipelines,
		CoresPerTask: cores,
		ResampleWork: TrueResampleWork,
		CombineWork:  TrueCombineWork,
	})
}

func TestDeterministicPerSeed(t *testing.T) {
	wf := swarpWF(1, 32)
	sc := core.RunOptions{StagedFraction: 1, IntermediatesToBB: true}
	r := NewRunner(CoriPrivate(1), 42)
	a, err := r.Run(wf, sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(wf, sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Makespans {
		if a.Makespans[i] != b.Makespans[i] {
			t.Errorf("rep %d: %v != %v (not deterministic)", i, a.Makespans[i], b.Makespans[i])
		}
	}
}

func TestRepetitionsVary(t *testing.T) {
	wf := swarpWF(1, 32)
	r := NewRunner(CoriPrivate(1), 7)
	res, err := r.Run(wf, core.RunOptions{StagedFraction: 1, IntermediatesToBB: true}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Std(res.Makespans) == 0 {
		t.Error("repetitions identical despite noise model")
	}
}

func TestStripedTaskIOCollapse(t *testing.T) {
	wf := swarpWF(1, 32)
	sc := core.RunOptions{StagedFraction: 1, IntermediatesToBB: true}
	priv, err := NewRunner(CoriPrivate(1), 1).Run(wf, sc, 5)
	if err != nil {
		t.Fatal(err)
	}
	str, err := NewRunner(CoriStriped(1), 1).Run(wf, sc, 5)
	if err != nil {
		t.Fatal(err)
	}
	ratio := str.TaskMean("resample") / priv.TaskMean("resample")
	t.Logf("resample: private=%.2fs striped=%.2fs ratio=%.1f×", priv.TaskMean("resample"), str.TaskMean("resample"), ratio)
	if ratio < 8 {
		t.Errorf("striped/private resample ratio = %.1f, want ≥ 8 (paper: 1–2 orders of magnitude)", ratio)
	}
	cratio := str.TaskMean("combine") / priv.TaskMean("combine")
	t.Logf("combine: private=%.2fs striped=%.2fs ratio=%.1f×", priv.TaskMean("combine"), str.TaskMean("combine"), cratio)
	if cratio < 8 {
		t.Errorf("striped/private combine ratio = %.1f, want ≥ 8", cratio)
	}
}

func TestOnNodeBeatsShared(t *testing.T) {
	sc := core.RunOptions{StagedFraction: 1, IntermediatesToBB: true}
	wf := swarpWF(1, 32)
	priv, err := NewRunner(CoriPrivate(1), 1).Run(wf, sc, 5)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := NewRunner(Summit(1), 1).Run(wf, sc, 5)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("stage-in: cori-private=%.2fs summit=%.2fs", priv.TaskMean("stage_in"), sum.TaskMean("stage_in"))
	ratio := priv.TaskMean("stage_in") / sum.TaskMean("stage_in")
	if ratio < 2.5 || ratio > 12 {
		t.Errorf("cori/summit stage-in ratio = %.1f, want ≈5 (paper Fig. 4: up to 5×)", ratio)
	}
	if sum.MeanMakespan() >= priv.MeanMakespan() {
		t.Error("summit should beat cori-private on makespan")
	}
}

func TestStripedAnomalyAt75(t *testing.T) {
	wf := swarpWF(1, 32)
	r := NewRunner(CoriStriped(1), 3)
	stage := func(frac float64) float64 {
		res, err := r.Run(wf, core.RunOptions{StagedFraction: frac, IntermediatesToBB: true}, 5)
		if err != nil {
			t.Fatal(err)
		}
		return res.TaskMean("stage_in")
	}
	s50, s75, s100 := stage(0.50), stage(0.75), stage(1.0)
	t.Logf("striped stage-in: 50%%=%.2fs 75%%=%.2fs 100%%=%.2fs", s50, s75, s100)
	// The anomaly makes 75% disproportionately expensive: above the linear
	// interpolation between 50% and 100%.
	interp := (s50 + s100) / 2
	if s75 <= interp*1.15 {
		t.Errorf("no anomaly at 75%%: got %.2fs, linear interpolation %.2fs", s75, interp)
	}
	// The private mode has no anomaly.
	rp := NewRunner(CoriPrivate(1), 3)
	p50r, _ := rp.Run(wf, core.RunOptions{StagedFraction: 0.50, IntermediatesToBB: true}, 5)
	p75r, _ := rp.Run(wf, core.RunOptions{StagedFraction: 0.75, IntermediatesToBB: true}, 5)
	p100r, _ := rp.Run(wf, core.RunOptions{StagedFraction: 1.0, IntermediatesToBB: true}, 5)
	pInterp := (p50r.TaskMean("stage_in") + p100r.TaskMean("stage_in")) / 2
	if p75r.TaskMean("stage_in") > pInterp*1.25 {
		t.Error("private mode shows an anomaly it should not have")
	}
}

func TestStageInGrowsWithFraction(t *testing.T) {
	wf := swarpWF(1, 32)
	for name, prof := range Profiles(1) {
		r := NewRunner(prof, 11)
		var prev float64 = -1
		for _, frac := range []float64{0, 0.25, 0.5, 1.0} {
			res, err := r.Run(wf, core.RunOptions{StagedFraction: frac, IntermediatesToBB: true}, 3)
			if err != nil {
				t.Fatal(err)
			}
			cur := res.TaskMean("stage_in")
			if cur < prev*0.9 { // noise tolerance
				t.Errorf("%s: stage-in shrank from %.2f to %.2f at fraction %.2f", name, prev, cur, frac)
			}
			prev = cur
		}
	}
}

func TestVariabilityOrdering(t *testing.T) {
	// Paper Fig. 8: striped is the most variable, on-node the least.
	wf := swarpWF(4, 1)
	sc := core.RunOptions{StagedFraction: 1, IntermediatesToBB: true}
	cv := func(p Profile) float64 {
		res, err := NewRunner(p, 5).Run(wf, sc, 10)
		if err != nil {
			t.Fatal(err)
		}
		return stats.CV(res.TaskMeans["resample"])
	}
	cvPriv, cvStr, cvSum := cv(CoriPrivate(1)), cv(CoriStriped(1)), cv(Summit(1))
	t.Logf("resample CV: private=%.3f striped=%.3f summit=%.3f", cvPriv, cvStr, cvSum)
	if !(cvStr > cvPriv && cvPriv > cvSum) {
		t.Errorf("variability ordering wrong: striped=%.3f private=%.3f summit=%.3f", cvStr, cvPriv, cvSum)
	}
}

func TestPipelineContentionOnCori(t *testing.T) {
	// Paper Fig. 7: up to ~3× slowdown at 32 concurrent pipelines on Cori,
	// near-negligible on Summit for resample.
	sc := core.RunOptions{StagedFraction: 1, IntermediatesToBB: true, CoresPerTask: 1}
	slowdown := func(p Profile) float64 {
		one, err := NewRunner(p, 2).Run(swarpWF(1, 1), sc, 3)
		if err != nil {
			t.Fatal(err)
		}
		many, err := NewRunner(p, 2).Run(swarpWF(32, 1), sc, 3)
		if err != nil {
			t.Fatal(err)
		}
		return many.TaskMean("resample") / one.TaskMean("resample")
	}
	cori := slowdown(CoriPrivate(1))
	summit := slowdown(Summit(1))
	t.Logf("resample slowdown at 32 pipelines: cori-private=%.2f× summit=%.2f×", cori, summit)
	if cori < 1.5 {
		t.Errorf("cori slowdown %.2f too small, want ≈3×", cori)
	}
	if summit > cori {
		t.Errorf("summit slowdown %.2f should be below cori's %.2f", summit, cori)
	}
}

func TestComputeModelShapes(t *testing.T) {
	// Combine gains little from cores; Resample gains until a plateau.
	wf1 := swarpWF(1, 1)
	wf32 := swarpWF(1, 32)
	r := NewRunner(CoriPrivate(1), 9)
	sc := core.RunOptions{StagedFraction: 1, IntermediatesToBB: true}
	one, err := r.Run(wf1, sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	many, err := r.Run(wf32, sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	resGain := one.TaskMean("resample") / many.TaskMean("resample")
	comGain := one.TaskMean("combine") / many.TaskMean("combine")
	t.Logf("1→32 cores: resample gain=%.2f× combine gain=%.2f×", resGain, comGain)
	if resGain < 2 {
		t.Errorf("resample should benefit from cores, gain=%.2f", resGain)
	}
	if comGain > resGain {
		t.Errorf("combine gain %.2f should not exceed resample gain %.2f", comGain, resGain)
	}
}

func TestRunValidation(t *testing.T) {
	wf := swarpWF(1, 1)
	r := NewRunner(CoriPrivate(1), 1)
	if _, err := r.Run(wf, core.RunOptions{}, 0); err == nil {
		t.Error("0 reps accepted")
	}
	if _, err := r.Run(wf, core.RunOptions{StagedFraction: 2}, 1); err == nil {
		t.Error("fraction > 1 accepted")
	}
}

func TestSummitUsesOnNodeBBs(t *testing.T) {
	wf := swarpWF(1, 32)
	r := NewRunner(Summit(2), 1)
	res, err := r.Run(wf, core.RunOptions{StagedFraction: 1, IntermediatesToBB: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespans[0] <= 0 {
		t.Fatal("empty run")
	}
}

// TestPhasesOnlyOnRequest: a testbed run keeps no task phases unless its
// options ask with trace.Retain, and then exactly the final repetition's,
// one per task, without perturbing any repetition.
func TestPhasesOnlyOnRequest(t *testing.T) {
	wf := swarpWF(1, 32)
	sc := core.RunOptions{StagedFraction: 1, IntermediatesToBB: true}
	r := NewRunner(CoriPrivate(1), 3)
	plain, err := r.Run(wf, sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Phases != nil {
		t.Fatalf("a run that did not ask kept %d task phases", len(plain.Phases))
	}
	sc.TraceSink = trace.Retain
	kept, err := r.Run(wf, sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(kept.Makespans, plain.Makespans) {
		t.Errorf("retaining changed the makespans: %v vs %v", kept.Makespans, plain.Makespans)
	}
	if len(kept.Phases) != len(wf.Tasks()) {
		t.Fatalf("kept %d task phases, want one per task (%d)", len(kept.Phases), len(wf.Tasks()))
	}
	// The phases are the final repetition's: their per-category mean is
	// that repetition's task mean, bit for bit.
	sum, n := map[string]float64{}, map[string]int{}
	for _, p := range kept.Phases {
		sum[p.Name] += p.ExecTime
		n[p.Name]++
	}
	for name, s := range sum {
		means := kept.TaskMeans[name]
		if got, want := s/float64(n[name]), means[len(means)-1]; got != want {
			t.Errorf("%s: phases average %v, the final repetition's mean is %v", name, got, want)
		}
	}
}
