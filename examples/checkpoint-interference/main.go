// checkpoint-interference shows the tension the paper's Section II
// describes: burst buffers were built for checkpoint traffic, so what
// happens to a workflow when it has to share them with exactly that
// workload?
//
//	go run ./examples/checkpoint-interference
package main

import (
	"fmt"
	"log"

	"bbwfsim/internal/ckpttraffic"
	"bbwfsim/internal/core"
	"bbwfsim/internal/exec"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/swarp"
	"bbwfsim/internal/units"
)

func main() {
	wf := swarp.MustNew(swarp.Params{Pipelines: 8, CoresPerTask: 32})

	run := func(cfg platform.Config, withCheckpoints bool) float64 {
		sim, err := core.NewSimulator(cfg)
		if err != nil {
			log.Fatal(err)
		}
		opts := core.RunOptions{StagedFraction: 1, IntermediatesToBB: true}
		if withCheckpoints {
			inj, err := ckpttraffic.New(ckpttraffic.Params{
				Interval:  2,
				Size:      2 * units.GB,
				ToBB:      true,
				FirstWave: 1,
			})
			if err != nil {
				log.Fatal(err)
			}
			opts.Background = []exec.Background{inj}
		}
		res, err := sim.Run(wf, opts)
		if err != nil {
			log.Fatal(err)
		}
		return res.Makespan
	}

	fmt.Println("SWarp, 8 pipelines, all data in the BB; co-located job checkpoints 2 GB")
	fmt.Println("per node every 2 s into the same burst buffer.")
	fmt.Println()
	fmt.Printf("%-14s %12s %18s %10s\n", "platform", "alone [s]", "w/ checkpoints [s]", "slowdown")
	for _, tc := range []struct {
		name string
		cfg  platform.Config
	}{
		{"cori-private", platform.Cori(1, platform.BBPrivate)},
		{"summit", platform.Summit(1)},
	} {
		alone := run(tc.cfg, false)
		loaded := run(tc.cfg, true)
		fmt.Printf("%-14s %12.2f %18.2f %9.2f×\n", tc.name, alone, loaded, loaded/alone)
	}
	fmt.Println("\nThe shared burst buffer (Cori) absorbs the checkpoint traffic into the")
	fmt.Println("same 800 MB/s everyone uses; Summit's per-node NVMe devices barely notice.")
}
