package exec_test

import (
	"testing"

	"bbwfsim/internal/exec"
	"bbwfsim/internal/genomes"
	"bbwfsim/internal/placement"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/sim"
	"bbwfsim/internal/storage"
	"bbwfsim/internal/swarp"
)

// BenchmarkGenomes903Tasks runs the paper's full case-study instance (903
// tasks, ~67 GB) through the whole stack — the simulator's headline
// "thoroughly and quickly" workload.
func BenchmarkGenomes903Tasks(b *testing.B) {
	wf := genomes.MustNew(genomes.Params{})
	pol, err := placement.NewFraction(wf, 0.5, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		p := platform.MustNew(e, platform.Cori(8, platform.BBPrivate))
		sys := storage.NewSystem(p, nil)
		tr, err := exec.Run(sys, wf, exec.Config{Placement: pol, PrePlaceInputs: true})
		if err != nil {
			b.Fatal(err)
		}
		if tr.Makespan() <= 0 {
			b.Fatal("empty run")
		}
	}
}

// BenchmarkSWarp32Pipelines runs the paper's widest characterization
// configuration.
func BenchmarkSWarp32Pipelines(b *testing.B) {
	wf := swarp.MustNew(swarp.Params{Pipelines: 32, CoresPerTask: 1})
	pol, err := placement.NewFraction(wf, 1, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		p := platform.MustNew(e, platform.Cori(1, platform.BBPrivate))
		sys := storage.NewSystem(p, nil)
		if _, err := exec.Run(sys, wf, exec.Config{Placement: pol, CoresPerTask: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
