package flow_test

import (
	"testing"

	"bbwfsim/internal/exec"
	"bbwfsim/internal/genomes"
	"bbwfsim/internal/placement"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/sim"
	"bbwfsim/internal/storage"
)

// TestOneSolvePerInstant runs the 1000Genomes cell (full chromosome set,
// cori-private at 8 nodes, inputs pre-placed, half of them staged) and
// checks the network was solved at most once per distinct simulated
// instant that had a change, while the kernel's cost metrics stay those of
// the solver that re-solved on every change (3,204 solves on this cell).
func TestOneSolvePerInstant(t *testing.T) {
	wf := genomes.MustNew(genomes.Params{Chromosomes: genomes.DefaultChromosomes})
	eng := sim.NewEngine()
	plat := platform.MustNew(eng, platform.Presets(8)["cori-private"])
	sys := storage.NewSystem(plat, nil)
	pol, err := placement.NewFraction(wf, 0.5, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Run(sys, wf, exec.Config{
		Placement:      pol,
		PrePlaceInputs: true,
	}); err != nil {
		t.Fatal(err)
	}
	st := plat.Network().Stats()
	t.Logf("%d solves over %d changed instants, %d events, peak pending %d", st.Recomputes, st.ChangedInstants, eng.EventsFired(), eng.MaxPending())
	if st.Recomputes == 0 || st.Recomputes > st.ChangedInstants {
		t.Errorf("%d solves over %d changed instants, want 1..%d", st.Recomputes, st.ChangedInstants, st.ChangedInstants)
	}
	if eng.EventsFired() != 1151 || eng.MaxPending() != 197 {
		t.Errorf("events %d, peak pending %d; want the eager solver's 1151, 197", eng.EventsFired(), eng.MaxPending())
	}
}
