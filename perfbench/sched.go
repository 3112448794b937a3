package main

import (
	"fmt"

	"bbwfsim/internal/sched"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workloads"
)

// schedCluster and the campaign below are the sched experiment's scarce
// cell (32 nodes, 128 GiB of BB, ~94% node utilization) at 10x its
// campaign length. At the generator's default arrival rate the cluster is
// overloaded and the plan policy does not finish 10,000 jobs in minutes.
var schedCluster = sched.Cluster{
	Nodes:        32,
	BBCapacity:   128 * units.GiB,
	BBBandwidth:  units.Bandwidth(4 * units.GiB),
	PFSBandwidth: units.Bandwidth(units.GiB),
}

// schedSeed pins the campaign. Near saturation the schedulers' cost
// follows the campaign's queue excursions: across campaign seeds 1-10 the
// plan policy took 0.8 s to 2.8 s, a spread that would hide any change in
// the code. A pinned campaign also checks every run against its golden.
const schedSeed = 1

func schedCampaign(jobs int) workloads.CampaignSpec {
	return workloads.CampaignSpec{
		Jobs: jobs, Seed: schedSeed, ArrivalMean: 110, RuntimeMean: 600, MaxNodes: 16, BBMean: 4 * units.GiB,
	}
}

type schedBench struct {
	jobs   []workloads.Job
	events uint64 // kernel events of the last sweep
}

// setupSched generates the campaign and warms the process with a sweep
// of every policy over its first tenth.
func setupSched(e *env) (instance, error) {
	id := e.tr.begin("workloads.campaign", -1, -1)
	jobs, err := workloads.Campaign(schedCampaign(e.size.schedJobs))
	e.tr.end(id)
	if err != nil {
		return nil, err
	}
	for _, p := range sched.Policies() {
		warm := append([]workloads.Job(nil), jobs[:len(jobs)/10]...)
		if _, err := sched.Run(sched.Config{Cluster: schedCluster, Policy: p, Jobs: warm}); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", p, err)
		}
	}
	return &schedBench{jobs: jobs}, nil
}

// round schedules the campaign under every policy. Its operations are
// scheduled jobs.
func (s *schedBench) round(e *env, parent int) (roundResult, error) {
	res := roundResult{rec: &goldenRecord{}}
	s.events = 0
	for _, p := range sched.Policies() {
		jobs := append([]workloads.Job(nil), s.jobs...)
		id := e.tr.begin("sched."+p, parent, -1)
		r, err := sched.Run(sched.Config{Cluster: schedCluster, Policy: p, Jobs: jobs})
		e.tr.end(id)
		e.ck.expect(err == nil, "sched %s: %v", p, err)
		if err != nil {
			continue
		}
		e.ck.expect(r.Submitted == len(jobs) && r.Completed+r.Failed+r.Rejected == r.Submitted,
			"sched %s: %d submitted, %d+%d+%d terminal, want %d", p, r.Submitted, r.Completed, r.Failed, r.Rejected, len(jobs))
		res.ops += float64(r.Submitted)
		s.events += r.Events
		res.rec.Policies = append(res.rec.Policies, policyRecord{
			Policy: p, Completed: r.Completed, MeanWait: r.MeanWait(), MeanSlowdown: r.MeanSlowdown(),
		})
		if err := e.pause(); err != nil {
			return res, err
		}
	}
	return res, nil
}

func (s *schedBench) verify(*env) error { return nil }

func (s *schedBench) layers(e *env, _ []round, m map[string]float64) error {
	var total float64
	for _, p := range sched.Policies() {
		d := e.tr.median("sched." + p)
		m["sched."+p+"_s"] = d
		total += d
	}
	m["sched.events"] = float64(s.events)
	if s.events > 0 {
		m["sched.us_per_event"] = 1e6 * total / float64(s.events)
	}
	m["workloads.campaign_ms"] = 1e3 * e.tr.median("workloads.campaign")
	return nil
}

func (s *schedBench) close() error { return nil }
