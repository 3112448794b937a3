package experiments

import (
	"fmt"

	"bbwfsim/internal/core"
	"bbwfsim/internal/exec"
	"bbwfsim/internal/genomes"
	"bbwfsim/internal/stats"
)

// RunAblationScheduler compares the workflow management system's
// scheduling policies on the 1000Genomes instance: node selection
// (first-fit / least-loaded / round-robin) crossed with ready-queue
// ordering (FIFO / largest-work / critical-path).
func RunAblationScheduler(opts Options) ([]*Table, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	chrom := 8
	if o.Quick {
		chrom = 2
	}
	wf := genomes.MustNew(genomes.Params{Chromosomes: chrom})
	// Summit: node selection interacts with data locality, because every
	// node has its own burst buffer and pre-placed inputs live on specific
	// nodes' devices.
	cfg := simPreset("summit", 2)
	t := &Table{
		ID: "ablation-scheduler",
		Title: fmt.Sprintf("Scheduler policies, 1000Genomes (%d chrom) on 2 Summit nodes, all data in BB",
			chrom),
		Header: []string{"node policy", "order policy", "makespan [s]", "vs baseline"},
	}
	nodePolicies := []string{"first-fit", "least-loaded", "round-robin"}
	orderPolicies := []string{"fifo", "largest-work", "critical-path"}
	type schedPoint struct{ node, order int }
	var pts []schedPoint
	for ni := range nodePolicies {
		for oi := range orderPolicies {
			pts = append(pts, schedPoint{ni, oi})
		}
	}
	makespans, err := runPoints(o, pts, func(p schedPoint) (float64, error) {
		np, op := nodePolicies[p.node], orderPolicies[p.order]
		node, err := exec.ParseNodePolicy(np)
		if err != nil {
			return 0, err
		}
		order, err := exec.ParseOrderPolicy(op)
		if err != nil {
			return 0, err
		}
		res, err := core.MustNewSimulator(cfg).Run(wf, core.RunOptions{
			StagedFraction:    1,
			IntermediatesToBB: true,
			PrePlaceInputs:    true,
			NodePolicy:        node,
			OrderPolicy:       order,
		})
		if err != nil {
			return 0, fmt.Errorf("scheduler %s/%s: %w", np, op, err)
		}
		return res.Makespan, nil
	})
	if err != nil {
		return nil, err
	}
	baseline := makespans[0]
	for i, p := range pts {
		t.Rows = append(t.Rows, []string{
			nodePolicies[p.node], orderPolicies[p.order], fsec(makespans[i]),
			fmt.Sprintf("%.3f", makespans[i]/baseline),
		})
	}
	t.Notes = append(t.Notes,
		"extension beyond the paper: the WMS layer the paper treats as fixed.")
	return []*Table{t}, nil
}

// RunAblationLifecycle shows what scratch-data lifecycle management buys
// when the burst buffer is smaller than the workflow footprint: an
// all-to-BB placement with evict-after-last-read versus static budgeted
// placements versus no BB at all.
func RunAblationLifecycle(opts Options) ([]*Table, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	chrom := 8
	if o.Quick {
		chrom = 2
	}
	wf := genomes.MustNew(genomes.Params{Chromosomes: chrom})
	st, err := wf.ComputeStats()
	if err != nil {
		return nil, err
	}
	budget := st.TotalBytes.Times(0.35)
	cfg := simPreset("cori-private", caseStudyNodes)
	cfg.BB.Capacity = budget

	t := &Table{
		ID: "ablation-lifecycle",
		Title: fmt.Sprintf("Data lifecycle, 1000Genomes (%d chrom), BB capacity = 35%% of footprint",
			chrom),
		Header: []string{"% input in BB + intermediates", "static [s]", "with eviction [s]"},
	}
	qs := []float64{0, 0.1, 0.2, 0.3, 0.4}
	type lifecyclePoint struct {
		q     float64
		evict bool
	}
	var pts []lifecyclePoint
	for _, q := range qs {
		pts = append(pts, lifecyclePoint{q, false}, lifecyclePoint{q, true})
	}
	// A point that overflows the constrained BB is a result ("overflow"),
	// not a sweep-aborting error.
	cells, err := runPoints(o, pts, func(p lifecyclePoint) (string, error) {
		res, err := core.MustNewSimulator(cfg).Run(wf, core.RunOptions{
			StagedFraction:     p.q,
			IntermediatesToBB:  true,
			PrePlaceInputs:     true,
			EvictAfterLastRead: p.evict,
		})
		if err != nil {
			return "overflow", nil
		}
		return fsec(res.Makespan), nil
	})
	if err != nil {
		return nil, err
	}
	feasibleStatic, feasibleEvict := 0, 0
	for qi, q := range qs {
		static, evict := cells[2*qi], cells[2*qi+1]
		if static != "overflow" {
			feasibleStatic++
		}
		if evict != "overflow" {
			feasibleEvict++
		}
		t.Rows = append(t.Rows, []string{ffrac(q), static, evict})
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"evict-after-last-read keeps %d of 5 staging levels feasible vs %d without it:",
		feasibleEvict, feasibleStatic),
		"freeing scratch replicas after their last consumer extends how much of the",
		"workflow fits a burst buffer smaller than the footprint (MaDaTS-style lifecycle",
		"management, which the paper surveys as related work).")
	return []*Table{t}, nil
}

// RunAblationVisibility quantifies the private DataWarp visibility rule on
// a multi-node run: with enforcement, intermediates written to the BB by
// one node must be relocated through the PFS before another node can read
// them.
func RunAblationVisibility(opts Options) ([]*Table, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	chrom := 8
	if o.Quick {
		chrom = 2
	}
	wf := genomes.MustNew(genomes.Params{Chromosomes: chrom})
	cfg := simPreset("cori-private", 4)
	t := &Table{
		ID: "ablation-visibility",
		Title: fmt.Sprintf("Private-mode visibility rule, 1000Genomes (%d chrom) on 4 Cori nodes, all data in BB",
			chrom),
		Header: []string{"visibility rule", "node policy", "makespan [s]"},
	}
	nodePolicies := []string{"first-fit", "round-robin"}
	type visPoint struct {
		node    int
		enforce bool
	}
	var pts []visPoint
	for ni := range nodePolicies {
		pts = append(pts, visPoint{ni, false}, visPoint{ni, true})
	}
	makespans, err := runPoints(o, pts, func(p visPoint) (float64, error) {
		np := nodePolicies[p.node]
		node, err := exec.ParseNodePolicy(np)
		if err != nil {
			return 0, err
		}
		res, err := core.MustNewSimulator(cfg).Run(wf, core.RunOptions{
			StagedFraction: 1, IntermediatesToBB: true, PrePlaceInputs: true,
			NodePolicy: node, EnforcePrivateVisibility: p.enforce,
		})
		if err != nil {
			return 0, fmt.Errorf("visibility %v/%s: %w", p.enforce, np, err)
		}
		return res.Makespan, nil
	})
	if err != nil {
		return nil, err
	}
	var lax, strict []float64
	for i, p := range pts {
		label := "ignored (paper's simulator)"
		if p.enforce {
			label = "enforced + PFS relocation"
			strict = append(strict, makespans[i])
		} else {
			lax = append(lax, makespans[i])
		}
		t.Rows = append(t.Rows, []string{label, nodePolicies[p.node], fsec(makespans[i])})
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"enforcement costs %.0f%% on average — the \"difficult data management challenges\"",
		100*(stats.Mean(strict)/stats.Mean(lax)-1)),
		"the paper's conclusion attributes to sharing files across BB namespaces.")
	return []*Table{t}, nil
}
