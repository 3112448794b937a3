// Command bbexp regenerates the paper's tables and figures from the
// reproduction's simulator and synthetic testbed.
//
// Usage:
//
//	bbexp -exp fig4            # one experiment
//	bbexp -exp all             # everything, in paper order
//	bbexp -list                # list experiment IDs
//	bbexp -exp fig10 -reps 30  # more testbed repetitions
//	bbexp -exp all -quick      # reduced sweeps (smoke test)
//	bbexp -exp all -j 8        # fan runs across 8 workers (same output)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"bbwfsim/internal/experiments"
	"bbwfsim/internal/metrics"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment ID (see -list) or \"all\"")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		reps    = flag.Int("reps", 0, "testbed repetitions per configuration (default 15, paper's protocol)")
		seed    = flag.Int64("seed", 1, "base seed for testbed noise")
		quick   = flag.Bool("quick", false, "reduced sweeps and repetitions")
		out     = flag.String("o", "", "write output to file instead of stdout")
		format  = flag.String("format", "text", "output format: text or csv")
		jobs    = flag.Int("j", runtime.NumCPU(), "worker goroutines for independent simulation runs; output is bit-identical at any value (-j 1 = serial)")
		metPath = flag.String("metrics", "", "write the merged observability snapshot of the instrumented experiments to this JSON file (bit-identical at any -j)")
		recPol  = flag.String("recovery", "", "restrict the resilience-ckpt sweep to one recovery policy: lineage, ckpt-bb, ckpt-pfs, or ckpt-bb+drain")
		swf     = flag.String("swf", "", "replay the sched experiment's campaign from this SWF trace file instead of the synthetic generator")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "bbexp: -exp required (or -list); try -exp all")
		os.Exit(2)
	}

	var selected []experiments.Experiment
	if *exp == "all" {
		selected = experiments.All()
	} else {
		e, ok := experiments.Find(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "bbexp: unknown experiment %q; use -list\n", *exp)
			os.Exit(2)
		}
		selected = []experiments.Experiment{e}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bbexp: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	if *format != "text" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "bbexp: unknown format %q (want text or csv)\n", *format)
		os.Exit(2)
	}
	opts := experiments.Options{Reps: *reps, Seed: *seed, Quick: *quick, Jobs: *jobs, Recovery: *recPol, SWF: *swf}
	var snaps []*metrics.Snapshot
	if *metPath != "" {
		// Each instrumented experiment hands over one merged snapshot; the
		// sink runs on the main goroutine (experiments call it after their
		// sweeps complete), and collection order is experiment order.
		opts.Metrics = func(s *metrics.Snapshot) { snaps = append(snaps, s) }
	}
	for _, e := range selected {
		tables, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bbexp: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if *format == "csv" {
			for _, t := range tables {
				fmt.Fprintf(w, "# %s\n", t.ID)
				if err := t.CSV(w); err != nil {
					fmt.Fprintf(os.Stderr, "bbexp: %v\n", err)
					os.Exit(1)
				}
				fmt.Fprintln(w)
			}
			continue
		}
		fmt.Fprintf(w, "# %s — %s\n\n", e.ID, e.Title)
		for _, t := range tables {
			if err := t.Fprint(w); err != nil {
				fmt.Fprintf(os.Stderr, "bbexp: %v\n", err)
				os.Exit(1)
			}
		}
	}

	if *metPath != "" {
		merged := metrics.Merge(snaps)
		if merged == nil {
			fmt.Fprintf(os.Stderr, "bbexp: -metrics: none of the selected experiments are instrumented (fig10, fig11, fig13, fig14, resilience, resilience-genomes, resilience-ckpt, adaptive are)\n")
			os.Exit(1)
		}
		data, err := merged.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bbexp: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*metPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bbexp: %v\n", err)
			os.Exit(1)
		}
	}
}
