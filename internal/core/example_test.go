package core_test

import (
	"fmt"
	"log"

	"bbwfsim/internal/core"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

// Build a small workflow by hand, simulate it on a Cori-like platform with
// a private-mode burst buffer, once with everything on the PFS and once
// with everything through the BB, and print each run's trace.
func ExampleSimulator_Run() {
	// A three-task pipeline: preprocess → analyze → summarize, chained by
	// files. Work is sequential compute in flops; cores is the per-task
	// request.
	wf := workflow.New("quickstart")
	wf.MustAddFile("raw.dat", 2*units.GiB)
	wf.MustAddFile("clean.dat", 1*units.GiB)
	wf.MustAddFile("result.dat", 100*units.MiB)
	wf.MustAddFile("report.txt", 1*units.MiB)
	wf.MustAddTask(workflow.TaskSpec{
		ID: "preprocess", Work: units.Flops(300e9), Cores: 8,
		Inputs: []string{"raw.dat"}, Outputs: []string{"clean.dat"},
	})
	wf.MustAddTask(workflow.TaskSpec{
		ID: "analyze", Work: units.Flops(1.2e12), Cores: 32,
		Inputs: []string{"clean.dat"}, Outputs: []string{"result.dat"},
	})
	wf.MustAddTask(workflow.TaskSpec{
		ID: "summarize", Work: units.Flops(50e9), Cores: 1,
		Inputs: []string{"result.dat"}, Outputs: []string{"report.txt"},
	})

	// A one-node Cori-like platform (Table I parameters).
	sim, err := core.NewSimulator(platform.Cori(1, platform.BBPrivate))
	if err != nil {
		log.Fatal(err)
	}
	for _, useBB := range []bool{false, true} {
		opts := core.RunOptions{IntermediatesToBB: useBB, PrePlaceInputs: true}
		where := "PFS only"
		if useBB {
			opts.StagedFraction = 1
			where = "burst buffer"
		}
		res, err := sim.Run(wf, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s: makespan %.2f s\n", where, res.Makespan)
		for _, rec := range res.Trace.Records() {
			fmt.Printf("  %-10s on %-14s start %6.2f  read %5.2f  compute %6.2f  write %5.2f  end %6.2f\n",
				rec.TaskID, rec.Node, rec.StartedAt,
				rec.ReadDoneAt-rec.StartedAt, rec.ComputeTime(),
				rec.FinishedAt-rec.ComputeDone, rec.FinishedAt)
		}
	}
	// Output:
	// === PFS only: makespan 48.45 s
	//   preprocess on cori-node000   start   0.00  read 21.47  compute   1.02  write 10.74  end  33.23
	//   analyze    on cori-node000   start  33.23  read 10.74  compute   1.02  write  1.05  end  46.04
	//   summarize  on cori-node000   start  46.04  read  1.05  compute   1.36  write  0.01  end  48.45
	// === burst buffer: makespan 31.56 s
	//   preprocess on cori-node000   start   0.00  read 13.42  compute   1.02  write  6.71  end  21.15
	//   analyze    on cori-node000   start  21.15  read  6.71  compute   1.02  write  0.66  end  29.54
	//   summarize  on cori-node000   start  29.54  read  0.66  compute   1.36  write  0.01  end  31.56
}
