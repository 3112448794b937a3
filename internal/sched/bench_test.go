package sched

import (
	"testing"

	"bbwfsim/internal/faults"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workloads"
)

// benchCampaign is perfbench's sched-10k campaign at 2,000 jobs: the
// scarce cell held near saturation, where every policy's queue grows long.
func benchCampaign(tb testing.TB) Config {
	tb.Helper()
	jobs, err := workloads.Campaign(workloads.CampaignSpec{
		Jobs: 2000, Seed: 1, ArrivalMean: 110, RuntimeMean: 600, MaxNodes: 16, BBMean: 4 * units.GiB,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return Config{Cluster: scarceCell, Jobs: jobs}
}

// BenchmarkSchedCampaign schedules the campaign under each policy.
func BenchmarkSchedCampaign(b *testing.B) {
	cfg := benchCampaign(b)
	for _, p := range Policies() {
		cfg.Policy = p
		b.Run(p, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// allocsPerJob is each policy's allocation budget per scheduled job on
// benchCampaign, and the node-fault case's: the count measured on amd64
// with go1.24, plus 15%. What is left per job is its node list and the
// two transfers of its stage phases; a job a failure kills before it
// starts them allocates less.
var allocsPerJob = map[string]float64{
	nodeFaultCase:     2.38 * 1.15,
	PolicyFCFS:        3.05 * 1.15,
	PolicyEASY:        3.05 * 1.15,
	PolicyPlan:        3.06 * 1.15,
	PolicyMaxBB:       3.04 * 1.15,
	PolicyMaxParallel: 3.04 * 1.15,
	PolicyDirectIO:    3.04 * 1.15,
}

// TestSchedCampaignAllocBudget pins the allocations of a whole campaign
// per job, so an allocation on the per-event or per-pass path shows up as
// a multiple of the job count. The node-fault case runs benchCampaign
// under EASY with a failure arriving every 50 s on average, about two per
// job, so an allocation per arrival shows up the same way.
func TestSchedCampaignAllocBudget(t *testing.T) {
	cfg := benchCampaign(t)
	run := func(name string, cfg Config) {
		var err error
		allocs := testing.AllocsPerRun(1, func() { _, err = Run(cfg) })
		if err != nil {
			t.Fatal(err)
		}
		perJob := allocs / float64(len(cfg.Jobs))
		t.Logf("%s: %.2f allocations per job", name, perJob)
		if budget := allocsPerJob[name]; perJob > budget {
			t.Errorf("%s: %.2f allocations per job, budget %.2f", name, perJob, budget)
		}
	}
	for _, p := range Policies() {
		cfg.Policy = p
		run(p, cfg)
	}
	cfg.Policy = PolicyEASY
	cfg.Faults = &FaultPlan{Seed: 1, Node: &faults.NodeProcess{Arrival: faults.Exp(50), MTTR: 600}}
	run(nodeFaultCase, cfg)
}

// nodeFaultCase names TestSchedCampaignAllocBudget's node-fault campaign.
const nodeFaultCase = "easy+node-faults"
