package experiments

import (
	"fmt"
	"os"
	"sort"

	"bbwfsim/internal/faults"
	"bbwfsim/internal/metrics"
	"bbwfsim/internal/sched"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workloads"
)

// The sched experiment is the multi-tenant study: a seeded synthetic
// campaign of competing batch jobs (internal/workloads) admitted onto one
// shared cluster under every scheduling policy (internal/sched), swept
// across three burst-buffer pressure levels. Within one pressure level all
// policies replay the bit-identical campaign — the campaign seed depends
// only on the pressure — so rows differ by policy alone. A fault section
// repeats the contended grid with a seeded node-failure campaign.

// schedPressure provisions the cluster's reservable BB capacity. "ample"
// never binds, "tight" binds under bursts, "scarce" is the contended grid
// where BB reservations — not nodes — dominate queueing.
type schedPressure struct {
	label    string
	capacity units.Bytes
}

var schedPressures = []schedPressure{
	{"ample", units.TiB},
	{"tight", 384 * units.GiB},
	{"scarce", 128 * units.GiB},
}

// schedCluster is the shared platform of every cell: 32 nodes, a 4 GiB/s
// BB staging channel, and a 4x slower direct PFS channel.
func schedCluster(p schedPressure) sched.Cluster {
	return sched.Cluster{
		Nodes:        32,
		BBCapacity:   p.capacity,
		BBBandwidth:  units.Bandwidth(4 * units.GiB),
		PFSBandwidth: units.Bandwidth(units.GiB),
	}
}

// schedSpec is the campaign generator configuration of one pressure cell:
// 1000 jobs (the acceptance floor) arriving at ~94% node utilization, so
// queues form without diverging. The seed depends only on the base seed
// and the pressure, never on the policy — every policy in a pressure row
// schedules the same jobs.
func schedSpec(o Options, pressure int) workloads.CampaignSpec {
	return workloads.CampaignSpec{
		Jobs:        1000,
		Seed:        o.Seed*1000 + int64(pressure),
		ArrivalMean: 110,
		RuntimeMean: 600,
		MaxNodes:    16,
		BBMean:      4 * units.GiB,
	}
}

// schedFaultPlan is the fault section's node-failure campaign: Poisson
// outages, half-hour repairs, a bounded budget. The seed depends on the
// cell so every cell's campaign is private and reproducible.
func schedFaultPlan(o Options, pressure, policy int) *sched.FaultPlan {
	return &sched.FaultPlan{
		Seed: o.Seed*1_000_003 + int64(pressure*100+policy),
		Node: &faults.NodeProcess{Arrival: faults.Exp(4000), MTTR: 1800, Budget: 10},
	}
}

// schedCell is one run point of the grid: a (pressure, policy) pair, with
// or without the fault campaign.
type schedCell struct {
	pressure int
	policy   int
	faults   bool
}

// loadSWFJobs reads the trace-driven campaign once per RunSched call:
// the SWF prefix every cell replays. BB demand falls back to 4 GiB per
// requested processor (the synthetic generator's mean) for records
// without a memory field, so the pressure rows bind comparably.
func loadSWFJobs(path string) ([]workloads.Job, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sched: opening SWF trace: %w", err)
	}
	jobs, err := workloads.ParseSWF(f, workloads.SWFOptions{BBPerProc: 4 * units.GiB, MaxJobs: 1000})
	if cerr := f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return jobs, nil
}

// runSchedCell executes one cell's campaign. Each cell builds its own
// jobs, cluster, and scheduler state, so cells fan across workers with
// bit-identical results at any Jobs value. A non-nil swfJobs replaces the
// synthetic campaign; the slice is shared read-only across cells, so each
// cell schedules its private copy.
func runSchedCell(o Options, c schedCell, swfJobs []workloads.Job) (*sched.Result, error) {
	var jobs []workloads.Job
	var err error
	if swfJobs != nil {
		jobs = append([]workloads.Job(nil), swfJobs...)
	} else {
		jobs, err = workloads.Campaign(schedSpec(o, c.pressure))
		if err != nil {
			return nil, err
		}
	}
	cfg := sched.Config{
		Cluster: schedCluster(schedPressures[c.pressure]),
		Policy:  sched.Policies()[c.policy],
		Jobs:    jobs,
	}
	if c.faults {
		cfg.Faults = schedFaultPlan(o, c.pressure, c.policy)
	}
	res, err := sched.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("sched %s/%s: %w",
			schedPressures[c.pressure].label, sched.Policies()[c.policy], err)
	}
	return res, nil
}

// schedQuantile returns the nearest-rank q-quantile of sorted vs (empty
// slices quantile to zero).
func schedQuantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	i := int(q * float64(len(vs)-1))
	return vs[i]
}

// completedDist extracts one sorted per-completed-job distribution.
func completedDist(res *sched.Result, f func(*sched.JobStat) float64) []float64 {
	vs := make([]float64, 0, len(res.Jobs))
	for i := range res.Jobs {
		if res.Jobs[i].Outcome == sched.Completed {
			vs = append(vs, f(&res.Jobs[i]))
		}
	}
	sort.Float64s(vs)
	return vs
}

// RunSched sweeps scheduling policy × BB pressure on a shared synthetic
// campaign, then repeats the scarce (contended) grid under a node-failure
// campaign. Quick mode shrinks the grid to the ample and scarce pressure
// rows; campaigns keep their full 1000-job length so quick output still
// exercises real contention.
func RunSched(opts Options) ([]*Table, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	pressures := []int{0, 1, 2}
	if o.Quick {
		pressures = []int{0, 2}
	}
	policies := sched.Policies()

	var cells []schedCell
	for _, pi := range pressures {
		for poli := range policies {
			cells = append(cells, schedCell{pressure: pi, policy: poli})
		}
	}
	// Fault section: the contended (scarce) grid under node failures.
	const faultPressure = 2
	for poli := range policies {
		cells = append(cells, schedCell{pressure: faultPressure, policy: poli, faults: true})
	}

	var swfJobs []workloads.Job
	if o.SWF != "" {
		swfJobs, err = loadSWFJobs(o.SWF)
		if err != nil {
			return nil, err
		}
	}

	results, err := runPoints(o, cells, func(c schedCell) (*sched.Result, error) {
		return runSchedCell(o, c, swfJobs)
	})
	if err != nil {
		return nil, err
	}
	snaps := make([]*metrics.Snapshot, len(results))
	for i, r := range results {
		snaps[i] = r.Metrics
	}
	emitMetrics(o, snaps)

	campaign := "1000-job campaign"
	notes := []string{
		"Within one pressure row every policy schedules the bit-identical campaign.",
		"bsld = bounded slowdown, max(1, response / max(span, 10 s)).",
	}
	if o.SWF != "" {
		campaign = fmt.Sprintf("%d-job SWF trace", len(swfJobs))
		notes = append(notes,
			fmt.Sprintf("Campaign replayed from SWF trace %s (every pressure row schedules the same trace prefix).", o.SWF))
	}
	grid := &Table{
		ID:    "sched-grid",
		Title: fmt.Sprintf("Multi-tenant scheduling: policy × BB pressure (%s)", campaign),
		Header: []string{"pressure", "policy", "completed", "failed", "rejected",
			"mean wait [s]", "p95 wait [s]", "mean resp [s]", "mean bsld", "makespan [s]"},
		Notes: notes,
	}
	waitCDF := &Table{
		ID:    "sched-wait-cdf",
		Title: "Multi-tenant scheduling: wait-time distribution over completed jobs",
		Header: []string{"pressure", "policy",
			"p10 [s]", "p25 [s]", "p50 [s]", "p75 [s]", "p90 [s]", "p95 [s]", "p99 [s]", "max [s]"},
	}
	respCDF := &Table{
		ID:    "sched-bsld",
		Title: "Multi-tenant scheduling: response and bounded-slowdown distributions",
		Header: []string{"pressure", "policy",
			"p50 resp [s]", "p95 resp [s]", "max resp [s]", "p50 bsld", "p95 bsld", "max bsld"},
	}
	faultTbl := &Table{
		ID:    "sched-faults",
		Title: "Multi-tenant scheduling under node failures (scarce BB, 10-outage budget)",
		Header: []string{"policy", "node failures", "completed", "failed", "rejected",
			"mean wait [s]", "mean resp [s]", "mean bsld", "makespan [s]"},
		Notes: []string{"Node failures kill the holding job (rigid allocations); nodes repair after 1800 s."},
	}

	for i, c := range cells {
		res := results[i]
		pol := policies[c.policy]
		if c.faults {
			faultTbl.Rows = append(faultTbl.Rows, []string{
				pol, fmt.Sprintf("%d", res.NodeFailures),
				fmt.Sprintf("%d", res.Completed), fmt.Sprintf("%d", res.Failed),
				fmt.Sprintf("%d", res.Rejected),
				fsec(res.MeanWait()), fsec(res.MeanResponse()),
				fmt.Sprintf("%.2f", res.MeanSlowdown()), fsec(res.Makespan),
			})
			continue
		}
		label := schedPressures[c.pressure].label
		grid.Rows = append(grid.Rows, []string{
			label, pol,
			fmt.Sprintf("%d", res.Completed), fmt.Sprintf("%d", res.Failed),
			fmt.Sprintf("%d", res.Rejected),
			fsec(res.MeanWait()),
			fsec(schedQuantile(completedDist(res, func(j *sched.JobStat) float64 { return j.Wait }), 0.95)),
			fsec(res.MeanResponse()),
			fmt.Sprintf("%.2f", res.MeanSlowdown()), fsec(res.Makespan),
		})
		waits := completedDist(res, func(j *sched.JobStat) float64 { return j.Wait })
		waitCDF.Rows = append(waitCDF.Rows, []string{
			label, pol,
			fsec(schedQuantile(waits, 0.10)), fsec(schedQuantile(waits, 0.25)),
			fsec(schedQuantile(waits, 0.50)), fsec(schedQuantile(waits, 0.75)),
			fsec(schedQuantile(waits, 0.90)), fsec(schedQuantile(waits, 0.95)),
			fsec(schedQuantile(waits, 0.99)), fsec(schedQuantile(waits, 1)),
		})
		resps := completedDist(res, func(j *sched.JobStat) float64 { return j.Response })
		slds := completedDist(res, func(j *sched.JobStat) float64 { return j.Slowdown })
		respCDF.Rows = append(respCDF.Rows, []string{
			label, pol,
			fsec(schedQuantile(resps, 0.50)), fsec(schedQuantile(resps, 0.95)),
			fsec(schedQuantile(resps, 1)),
			fmt.Sprintf("%.2f", schedQuantile(slds, 0.50)),
			fmt.Sprintf("%.2f", schedQuantile(slds, 0.95)),
			fmt.Sprintf("%.2f", schedQuantile(slds, 1)),
		})
	}
	return []*Table{grid, waitCDF, respCDF, faultTbl}, nil
}
