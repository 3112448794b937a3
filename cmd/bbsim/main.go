// Command bbsim runs one simulated workflow execution and reports the
// makespan, per-category task summaries, and storage traffic.
//
// Usage:
//
//	bbsim -workflow wf.json -platform cori-private -fraction 0.5
//	bbsim -workflow wf.json -platform my-platform.json -intermediates-bb
//	bbsim -workflow wf.json -platform summit -trace trace.json
//	bbsim -gen montage:1000000 -evict                     # scale run, counters only
//	bbsim -gen chain:1000 -trace t.jsonl -trace-out jsonl # stream trace to disk
//
// The -platform flag accepts a preset name (cori-private, cori-striped,
// summit) or a path to a platform JSON description. The -gen flag generates
// a WfBench-style synthetic workflow instead of loading one.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"bbwfsim/internal/adapt"
	"bbwfsim/internal/ckpt"
	"bbwfsim/internal/core"
	"bbwfsim/internal/exec"
	"bbwfsim/internal/faults"
	"bbwfsim/internal/metrics"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/sched"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
	"bbwfsim/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bbsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wfPath    = fs.String("workflow", "", "workflow JSON file (required unless -gen)")
		genSpec   = fs.String("gen", "", "generate a synthetic workflow instead of loading one: <topology>:<tasks>[:<width>] with topology chain, forkjoin, or montage")
		platName  = fs.String("platform", "cori-private", "platform preset name or JSON file")
		nodes     = fs.Int("nodes", 1, "node count for preset platforms")
		fraction  = fs.Float64("fraction", 0, "fraction of input files staged to the burst buffer [0,1]")
		interBB   = fs.Bool("intermediates-bb", false, "place intermediate files on the burst buffer")
		cores     = fs.Int("cores", 0, "override cores per compute task (0 = task request)")
		prePlace  = fs.Bool("preplace", false, "pre-place workflow inputs on their targets at no cost")
		tracePath = fs.String("trace", "", "write the event trace to this file (JSON, or one row per event with -trace-out)")
		traceOut  = fs.String("trace-out", "", "stream events to -trace as they fire instead of retaining them: jsonl or csv")
		gantt     = fs.Bool("gantt", false, "print an ASCII Gantt chart of the execution")
		evict     = fs.Bool("evict", false, "free BB replicas after their last consumer (lifecycle management)")
		private   = fs.Bool("enforce-private", false, "enforce the private-mode BB visibility rule")
		fallback  = fs.Bool("bb-fallback", false, "redirect writes whose BB target is full to the PFS instead of failing")
		nodePol   = fs.String("node-policy", "first-fit", "node selection: first-fit, least-loaded, round-robin")
		orderPol  = fs.String("order-policy", "fifo", "ready-queue order: fifo, largest-work, critical-path")
		metricsJS = fs.String("metrics", "", "write the run's observability snapshot to this JSON file")
		ckptIv    = fs.Float64("ckpt-interval", 0, "checkpoint compute tasks every N seconds of progress (0 = no checkpointing)")
		ckptTier  = fs.String("ckpt-tier", "bb", "checkpoint target tier: bb or pfs")
		ckptDrain = fs.Bool("ckpt-drain", false, "asynchronously drain burst-buffer checkpoints to the PFS")
		ckptDelay = fs.Float64("ckpt-drain-delay", 0, "delay each drain copy by N seconds after its checkpoint commits")
		ckptSize  = fs.Float64("ckpt-size", 256, "checkpoint snapshot size floor in MiB (tasks with a memory footprint snapshot that instead)")
		promPath  = fs.String("prom", "", "write the snapshot in Prometheus text format to this file (\"-\" = stdout)")
		adHigh    = fs.Float64("adapt-high", 0, "spill BB replicas to the PFS above this occupancy fraction (0 = no pressure spill)")
		adLow     = fs.Float64("adapt-low", 0, "stop spilling below this occupancy fraction (0 = half the high-water mark)")
		adRepl    = fs.Bool("adapt-replicate", false, "proactively replicate sole-replica inputs of pending tasks after faults")
		adBudget  = fs.Int("adapt-repl-budget", 0, "cap proactive replication copies per run (0 = unbounded; needs -adapt-replicate)")
		adDegrade = fs.Bool("adapt-degraded-fallback", false, "route new allocations away from degraded tiers")
		schedPol  = fs.String("sched", "", "run a multi-tenant batch campaign under this scheduling policy (fcfs, easy, plan, maxbb, maxparallel, directio) instead of a single workflow")
		schedJobs = fs.Int("sched-jobs", 1000, "synthetic campaign length for -sched")
		schedSeed = fs.Int64("sched-seed", 1, "campaign generator and fault seed for -sched")
		schedSWF  = fs.String("sched-swf", "", "load the -sched campaign from this SWF trace file instead of generating one")
		schedCap  = fs.Float64("sched-bb-cap", 0, "override the reservable BB capacity for -sched, in GiB (0 = platform preset)")
		schedFM   = fs.Float64("sched-fault-mean", 0, "inject node failures into the -sched campaign with this exponential inter-arrival mean in seconds (0 = none)")
		schedMTTR = fs.Float64("sched-mttr", 1800, "node repair time in seconds for -sched-fault-mean")
		schedFB   = fs.Int("sched-fault-budget", 0, "cap injected node failures for -sched-fault-mean (0 = unbounded)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "bbsim: "+format+"\n", a...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bbsim: %v\n", err)
		return 1
	}

	if *traceOut != "" {
		if *tracePath == "" {
			return usage("-trace-out needs -trace <file> for the output path")
		}
		if *traceOut != "jsonl" && *traceOut != "csv" {
			return usage("unknown -trace-out format %q (want jsonl or csv)", *traceOut)
		}
	}
	if *schedPol != "" {
		if *wfPath != "" || *genSpec != "" {
			return usage("-sched is incompatible with -workflow and -gen")
		}
		if *gantt {
			return usage("-sched supports only the retained trace (-trace <file>, as JSON or in the -trace-out format)")
		}
		cfg, err := loadPlatform(*platName, *nodes)
		if err != nil {
			return fail(err)
		}
		return runSchedCampaign(schedCampaignOpts{
			policy: *schedPol, platform: cfg,
			jobs: *schedJobs, seed: *schedSeed, swf: *schedSWF,
			bbCapGiB: *schedCap, faultMean: *schedFM, mttr: *schedMTTR, faultBudget: *schedFB,
			tracePath: *tracePath, traceOut: *traceOut, metricsPath: *metricsJS, promPath: *promPath,
		}, stdout, stderr)
	}
	if (*wfPath == "") == (*genSpec == "") {
		return usage("exactly one of -workflow or -gen required")
	}
	var (
		wf  *workflow.Workflow
		err error
	)
	if *genSpec != "" {
		spec, perr := workloads.ParseScaleSpec(*genSpec)
		if perr != nil {
			return fail(perr)
		}
		wf, err = workloads.Scale(spec)
	} else {
		wf, err = workflow.Load(*wfPath)
	}
	if err != nil {
		return fail(err)
	}

	// The trace sink decides what the run materializes: counters only (nil,
	// the default), a stream to disk, or everything for the retained-only
	// outputs (-gantt, plain -trace). Those are rejected up front with the
	// other sinks rather than failing after the simulation ran.
	var sink trace.Sink
	var sinkFile *os.File
	switch {
	case *traceOut != "":
		if *gantt {
			return usage("-gantt needs the retained trace; drop -trace-out")
		}
		sinkFile, err = os.Create(*tracePath)
		if err != nil {
			return fail(err)
		}
		sink = newSink(*traceOut, sinkFile)
	case *tracePath != "" || *gantt:
		sink = trace.Retain
	}

	cfg, err := loadPlatform(*platName, *nodes)
	if err != nil {
		return fail(err)
	}
	sim, err := core.NewSimulator(cfg)
	if err != nil {
		return fail(err)
	}
	np, err := exec.ParseNodePolicy(*nodePol)
	if err != nil {
		return fail(err)
	}
	op, err := exec.ParseOrderPolicy(*orderPol)
	if err != nil {
		return fail(err)
	}
	var pol ckpt.Policy
	if *ckptIv > 0 {
		pol = ckpt.Policy{
			Interval:   *ckptIv,
			Target:     ckpt.Target(*ckptTier),
			Drain:      *ckptDrain,
			DrainDelay: *ckptDelay,
			MinSize:    units.Bytes(*ckptSize * float64(units.MiB)),
		}
	}
	res, err := sim.Run(wf, core.RunOptions{
		StagedFraction:           *fraction,
		IntermediatesToBB:        *interBB,
		CoresPerTask:             *cores,
		PrePlaceInputs:           *prePlace,
		EvictAfterLastRead:       *evict,
		EnforcePrivateVisibility: *private,
		BBFallback:               *fallback,
		NodePolicy:               np,
		OrderPolicy:              op,
		Checkpoint:               pol,
		Adapt: adapt.Policy{
			SpillHighWater:    *adHigh,
			SpillLowWater:     *adLow,
			ReplicateOnFault:  *adRepl,
			ReplicationBudget: *adBudget,
			DegradedFallback:  *adDegrade,
		},
		TraceSink: sink,
		Metrics:   *metricsJS != "" || *promPath != "",
	})
	if err != nil {
		return fail(err)
	}
	if sinkFile != nil {
		if err := sink.Close(); err != nil {
			return fail(err)
		}
		if err := sinkFile.Close(); err != nil {
			return fail(err)
		}
	}

	fmt.Fprintf(stdout, "workflow:  %s (%d tasks, %d files)\n", wf.Name(), len(wf.Tasks()), len(wf.Files()))
	fmt.Fprintf(stdout, "platform:  %s (%d nodes × %d cores)\n", cfg.Name, cfg.Nodes, cfg.CoresPerNode)
	fmt.Fprintf(stdout, "staged:    %.0f%% of input files to BB, intermediates on %s\n",
		100**fraction, map[bool]string{true: "BB", false: "PFS"}[*interBB])
	fmt.Fprintf(stdout, "makespan:  %.2f s\n\n", res.Makespan)

	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "task\tcount\tmean exec [s]\tmean I/O [s]\tmean compute [s]\tread\twritten")
	for _, s := range res.Summaries {
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2f\t%.2f\t%v\t%v\n",
			s.Name, s.Count, s.MeanExec, s.MeanIO, s.MeanCompute, s.BytesRead, s.BytesWritten)
	}
	tw.Flush()

	fmt.Fprintf(stdout, "\nBB traffic:  %v read (%v avg), %v written (%v avg)\n",
		res.BB.BytesRead, res.BB.ReadBandwidth(), res.BB.BytesWritten, res.BB.WriteBandwidth())
	fmt.Fprintf(stdout, "PFS traffic: %v read (%v avg), %v written (%v avg)\n",
		res.PFS.BytesRead, res.PFS.ReadBandwidth(), res.PFS.BytesWritten, res.PFS.WriteBandwidth())
	fmt.Fprintf(stdout, "events:      %d fired, %d peak pending\n", res.Events, res.PeakPending)

	if *gantt {
		fmt.Fprintln(stdout)
		if err := res.Trace.RenderGantt(stdout, 72); err != nil {
			return fail(err)
		}
	}

	if *tracePath != "" && sinkFile == nil {
		if err := res.Trace.Save(*tracePath); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "trace written to %s\n", *tracePath)
	}
	if sinkFile != nil {
		fmt.Fprintf(stdout, "trace streamed to %s (%s)\n", *tracePath, *traceOut)
	}

	if err := writeMetrics(res.Metrics, *metricsJS, *promPath, stdout); err != nil {
		return fail(err)
	}
	return 0
}

// writeMetrics writes a run's metrics snapshot as JSON to jsonPath and in
// Prometheus text format to promPath ("-" = stdout); an empty path skips
// that format.
func writeMetrics(snap *metrics.Snapshot, jsonPath, promPath string, stdout io.Writer) error {
	if jsonPath != "" {
		data, err := snap.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "metrics written to %s\n", jsonPath)
	}
	switch promPath {
	case "":
		return nil
	case "-":
		fmt.Fprintln(stdout)
		return snap.WriteProm(stdout)
	}
	var buf bytes.Buffer
	if err := snap.WriteProm(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(promPath, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "metrics written to %s\n", promPath)
	return nil
}

// schedCampaignOpts collects the -sched flag family.
type schedCampaignOpts struct {
	policy      string
	platform    platform.Config
	jobs        int
	seed        int64
	swf         string
	bbCapGiB    float64
	faultMean   float64
	mttr        float64
	faultBudget int
	tracePath   string
	traceOut    string
	metricsPath string
	promPath    string
}

// runSchedCampaign executes one multi-tenant batch campaign (-sched) and
// prints its accounting through the core.Result fold.
func runSchedCampaign(o schedCampaignOpts, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bbsim: %v\n", err)
		return 1
	}
	cluster := sched.ClusterFromPlatform(o.platform)
	if o.bbCapGiB > 0 {
		cluster.BBCapacity = units.Bytes(o.bbCapGiB * float64(units.GiB))
	}
	var (
		jobs   []workloads.Job
		source string
		err    error
	)
	if o.swf != "" {
		f, oerr := os.Open(o.swf)
		if oerr != nil {
			return fail(oerr)
		}
		jobs, err = workloads.ParseSWF(f, workloads.SWFOptions{BBPerProc: units.GiB, MaxJobs: o.jobs})
		f.Close()
		source = fmt.Sprintf("SWF trace %s", o.swf)
	} else {
		maxNodes := 16
		if cluster.Nodes < maxNodes {
			maxNodes = cluster.Nodes
		}
		jobs, err = workloads.Campaign(workloads.CampaignSpec{
			Jobs: o.jobs, Seed: o.seed, MaxNodes: maxNodes,
		})
		source = fmt.Sprintf("synthetic, seed %d", o.seed)
	}
	if err != nil {
		return fail(err)
	}
	cfg := sched.Config{Cluster: cluster, Policy: o.policy, Jobs: jobs}
	if o.faultMean > 0 {
		cfg.Faults = &sched.FaultPlan{
			Seed: o.seed,
			Node: &faults.NodeProcess{Arrival: faults.Exp(o.faultMean), MTTR: o.mttr, Budget: o.faultBudget},
		}
	}
	// -trace alone saves the retained trace as JSON; with -trace-out the
	// events stream to the file as the campaign fires them.
	var sinkFile *os.File
	switch {
	case o.traceOut != "":
		if sinkFile, err = os.Create(o.tracePath); err != nil {
			return fail(err)
		}
		defer sinkFile.Close()
		cfg.TraceSink = newSink(o.traceOut, sinkFile)
	case o.tracePath != "":
		cfg.TraceSink = trace.Retain
	}
	sres, err := sched.Run(cfg)
	if err != nil {
		return fail(err)
	}
	res := sres.Core()

	fmt.Fprintf(stdout, "policy:    %s on %s (%d nodes, BB %v @ %v, PFS %v)\n",
		res.Sched.Policy, o.platform.Name, cluster.Nodes,
		cluster.BBCapacity, cluster.BBBandwidth, cluster.PFSBandwidth)
	fmt.Fprintf(stdout, "campaign:  %d jobs (%s)\n", res.Sched.Submitted, source)
	fmt.Fprintf(stdout, "outcomes:  %d completed, %d failed, %d rejected (%d node failures)\n",
		res.Sched.Completed, res.Sched.Failed, res.Sched.Rejected, res.Sched.NodeFailures)
	fmt.Fprintf(stdout, "mean wait: %.2f s   mean response: %.2f s   mean bounded slowdown: %.2f\n",
		res.Sched.MeanWait, res.Sched.MeanResponse, res.Sched.MeanSlowdown)
	fmt.Fprintf(stdout, "makespan:  %.2f s (%d events)\n", res.Makespan, res.Events)

	if o.tracePath != "" {
		if sinkFile != nil {
			err = errors.Join(cfg.TraceSink.Close(), sinkFile.Close())
		} else {
			err = res.Trace.Save(o.tracePath)
		}
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "trace written to %s\n", o.tracePath)
	}
	if err := writeMetrics(res.Metrics, o.metricsPath, o.promPath, stdout); err != nil {
		return fail(err)
	}
	return 0
}

// newSink returns the -trace-out format's sink writing onto w.
func newSink(format string, w io.Writer) trace.Sink {
	if format == "jsonl" {
		return trace.NewJSONLSink(w)
	}
	return trace.NewCSVSink(w)
}

func loadPlatform(name string, nodes int) (platform.Config, error) {
	if cfg, ok := platform.Preset(name, nodes); ok {
		return cfg, nil
	}
	if _, err := os.Stat(name); err == nil {
		return platform.LoadConfig(name)
	}
	return platform.Config{}, fmt.Errorf("unknown platform %q (not a preset, not a file)", name)
}
