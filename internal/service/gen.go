package service

import "math/rand"

// SeededRequest generates a valid, always-evaluable request from a seed —
// the service-layer twin of the invariant harness's RandomCase: the same
// seed always yields the same request, and the space deliberately mixes
// workflow kinds, platforms, run knobs, checkpointing, adaptation,
// faults, and sched campaigns so 100 seeds sweep every Execute path.
// Sizes are kept small (tens of tasks, hundreds of sched jobs) so a
// 100-seed replay stays test-budget friendly.
func SeededRequest(seed int64) Request {
	rng := rand.New(rand.NewSource(seed))
	presets := []string{"cori-private", "cori-striped", "summit"}
	req := Request{
		Platform: PlatformSpec{
			Preset: presets[rng.Intn(len(presets))],
			Nodes:  1 + rng.Intn(4),
		},
		Seed: seed,
	}

	// One request in five is a sched campaign; the rest single runs
	// spread across the three workflow kinds.
	switch rng.Intn(5) {
	case 0:
		policies := []string{"fcfs", "easy", "plan", "maxbb", "maxparallel", "directio"}
		req.Sched = &SchedSpec{
			Policy: policies[rng.Intn(len(policies))],
			Jobs:   50 + rng.Intn(150),
		}
		if rng.Intn(3) == 0 {
			req.Faults = &FaultSpec{
				NodeFailMeanSeconds: 3600,
				NodeMTTRSeconds:     600,
				NodeFailBudget:      2,
			}
		}
		return req
	case 1:
		req.Workflow = WorkflowSpec{Kind: KindSWarp, Pipelines: 1 + rng.Intn(4)}
	case 2:
		req.Workflow = WorkflowSpec{Kind: KindGenomes, Chromosomes: 1 + rng.Intn(4)}
	default:
		topologies := []string{"chain", "forkjoin", "montage"}
		req.Workflow = WorkflowSpec{
			Kind:     KindGen,
			Topology: topologies[rng.Intn(len(topologies))],
			Tasks:    10 + rng.Intn(90),
			Width:    4 + rng.Intn(12),
		}
	}

	req.Run = RunSpec{
		StagedFraction:    float64(rng.Intn(5)) / 4,
		IntermediatesToBB: rng.Intn(2) == 0,
		BBFallback:        true,
	}
	switch rng.Intn(3) {
	case 0:
		req.Run.NodePolicy = "least-loaded"
	case 1:
		req.Run.OrderPolicy = "critical-path"
	}
	if rng.Intn(4) == 0 {
		req.Ckpt = &CkptSpec{IntervalSeconds: 30 + float64(30*float64(rng.Intn(4))), Tier: []string{"bb", "pfs"}[rng.Intn(2)]}
	}
	if rng.Intn(4) == 0 {
		req.Adapt = &AdaptSpec{SpillHighWater: 0.8, ReplicateOnFault: true}
	}
	if rng.Intn(4) == 0 {
		req.Faults = &FaultSpec{
			NodeFailMeanSeconds: 1800,
			NodeMTTRSeconds:     300,
			NodeFailBudget:      1,
			BBRejectProb:        0.05,
			MaxRetries:          3,
		}
	}
	return req
}
