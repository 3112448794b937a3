package service

import (
	"bbwfsim/internal/adapt"
	"bbwfsim/internal/ckpt"
	"bbwfsim/internal/core"
	"bbwfsim/internal/exec"
	"bbwfsim/internal/faults"
	"bbwfsim/internal/genomes"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/sched"
	"bbwfsim/internal/swarp"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
	"bbwfsim/internal/workloads"
)

// Execute evaluates one validated request and returns the canonical
// result-document bytes. It is a pure function of the request: every
// piece of simulation state — workflow, platform, engine, RNG streams —
// is built from the request alone and torn down before returning, so the
// same request always yields byte-identical output. bbvet registers
// Execute as a determinism-taint sink to machine-check that claim: the
// HTTP layer above may read the wall clock, nothing reachable from here
// may.
//
// A request with workflow kind "panic" panics — that is its contract (see
// KindPanic); the server's worker recovery converts it to a structured
// 500.
func Execute(req *Request) ([]byte, error) {
	n := req.Normalized()
	if n.Sched != nil {
		return executeSched(&n)
	}
	return executeRun(&n)
}

func executeRun(req *Request) ([]byte, error) {
	wf, err := buildWorkflow(&req.Workflow, req.Seed)
	if err != nil {
		return nil, err
	}
	cfg, ok := platform.Presets(req.Platform.Nodes)[req.Platform.Preset]
	if !ok {
		return nil, badField("platform.preset", "unknown preset %q", req.Platform.Preset)
	}
	sim, err := core.NewSimulator(cfg)
	if err != nil {
		return nil, err
	}
	opts := core.RunOptions{
		StagedFraction:           req.Run.StagedFraction,
		IntermediatesToBB:        req.Run.IntermediatesToBB,
		CoresPerTask:             req.Run.CoresPerTask,
		PrePlaceInputs:           req.Run.PrePlaceInputs,
		EvictAfterLastRead:       req.Run.EvictAfterLastRead,
		EnforcePrivateVisibility: req.Run.EnforcePrivateVisibility,
		BBFallback:               req.Run.BBFallback,
	}
	if opts.NodePolicy, err = exec.ParseNodePolicy(req.Run.NodePolicy); err != nil {
		return nil, badField("run.node_policy", "unknown policy %q", req.Run.NodePolicy)
	}
	if opts.OrderPolicy, err = exec.ParseOrderPolicy(req.Run.OrderPolicy); err != nil {
		return nil, badField("run.order_policy", "unknown policy %q", req.Run.OrderPolicy)
	}
	if c := req.Ckpt; c != nil {
		tier := ckpt.Target(c.Tier)
		opts.Checkpoint = ckpt.Policy{
			Interval:   c.IntervalSeconds,
			Target:     tier,
			Drain:      c.Drain,
			DrainDelay: c.DrainDelaySeconds,
			MinSize:    units.Bytes(c.MinSizeMiB * float64(units.MiB)),
		}
	}
	if a := req.Adapt; a != nil {
		opts.Adapt = adapt.Policy{
			SpillHighWater:    a.SpillHighWater,
			SpillLowWater:     a.SpillLowWater,
			ReplicateOnFault:  a.ReplicateOnFault,
			ReplicationBudget: a.ReplicationBudget,
			DegradedFallback:  a.DegradedFallback,
		}
	}
	if f := req.Faults; f != nil {
		fc := faults.Config{Seed: req.Seed}
		if f.CrashMeanSeconds > 0 {
			fc.TaskCrash = &faults.CrashProcess{Arrival: faults.Exp(f.CrashMeanSeconds), Budget: f.CrashBudget}
		}
		if f.NodeFailMeanSeconds > 0 {
			fc.NodeFailure = &faults.NodeProcess{Arrival: faults.Exp(f.NodeFailMeanSeconds), MTTR: f.NodeMTTRSeconds, Budget: f.NodeFailBudget}
		}
		if f.BBRejectProb > 0 {
			fc.BBReject = &faults.RejectPolicy{Prob: f.BBRejectProb}
		}
		inj, err := faults.New(fc)
		if err != nil {
			return nil, err
		}
		opts.Faults = inj
		opts.Retry = exec.RetryPolicy{MaxRetries: f.MaxRetries}
	}
	res, err := sim.Run(wf, opts)
	if err != nil {
		return nil, err
	}
	return core.EncodeResult(res)
}

func executeSched(req *Request) ([]byte, error) {
	cfg, ok := platform.Presets(req.Platform.Nodes)[req.Platform.Preset]
	if !ok {
		return nil, badField("platform.preset", "unknown preset %q", req.Platform.Preset)
	}
	cluster := sched.ClusterFromPlatform(cfg)
	if req.Sched.BBCapacityGiB > 0 {
		cluster.BBCapacity = units.Bytes(req.Sched.BBCapacityGiB * float64(units.GiB))
	}
	maxNodes := 16
	if cluster.Nodes < maxNodes {
		maxNodes = cluster.Nodes
	}
	jobs, err := workloads.Campaign(workloads.CampaignSpec{
		Jobs: req.Sched.Jobs, Seed: req.Seed, MaxNodes: maxNodes,
	})
	if err != nil {
		return nil, err
	}
	scfg := sched.Config{Cluster: cluster, Policy: req.Sched.Policy, Jobs: jobs}
	if f := req.Faults; f != nil && f.NodeFailMeanSeconds > 0 {
		scfg.Faults = &sched.FaultPlan{
			Seed: req.Seed,
			Node: &faults.NodeProcess{Arrival: faults.Exp(f.NodeFailMeanSeconds), MTTR: f.NodeMTTRSeconds, Budget: f.NodeFailBudget},
		}
	}
	sres, err := sched.Run(scfg)
	if err != nil {
		return nil, err
	}
	return core.EncodeResult(sres.Core())
}

func buildWorkflow(w *WorkflowSpec, seed int64) (*workflow.Workflow, error) {
	switch w.Kind {
	case KindGen:
		return workloads.Scale(workloads.ScaleSpec{
			Topology: w.Topology, Tasks: w.Tasks, Width: w.Width, Seed: seed,
		})
	case KindSWarp:
		return swarp.New(swarp.Params{Pipelines: w.Pipelines})
	case KindGenomes:
		return genomes.New(genomes.Params{Chromosomes: w.Chromosomes})
	case KindPanic:
		panic("service: panic-kind workflow evaluated (test hook)")
	}
	return nil, badField("workflow.kind", "unknown kind %q", w.Kind)
}
