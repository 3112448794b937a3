package sched

import (
	"testing"

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
// benchCampaign: the count measured on amd64 with go1.24, plus 15%. What
// is left per job is its node list and the two transfers of its stage
// phases.
var allocsPerJob = map[string]float64{
	PolicyFCFS:        3.05 * 1.15,
	PolicyEASY:        3.05 * 1.15,
	PolicyPlan:        3.06 * 1.15,
	PolicyMaxBB:       3.04 * 1.15,
	PolicyMaxParallel: 3.04 * 1.15,
	PolicyDirectIO:    3.04 * 1.15,
}

// TestSchedCampaignAllocBudget pins the allocations of a whole campaign
// per job, so an allocation on the per-event or per-pass path shows up as
// a multiple of the job count.
func TestSchedCampaignAllocBudget(t *testing.T) {
	cfg := benchCampaign(t)
	for _, p := range Policies() {
		cfg.Policy = p
		var err error
		allocs := testing.AllocsPerRun(1, func() { _, err = Run(cfg) })
		if err != nil {
			t.Fatal(err)
		}
		perJob := allocs / float64(len(cfg.Jobs))
		t.Logf("%s: %.2f allocations per job", p, perJob)
		if budget := allocsPerJob[p]; perJob > budget {
			t.Errorf("%s: %.2f allocations per job, budget %.2f", p, perJob, budget)
		}
	}
}
