package sched

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"bbwfsim/internal/faults"
	"bbwfsim/internal/metrics"
	"bbwfsim/internal/sim"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workloads"
)

// The tests in this file pin the scheduler's incremental structures to
// the straightforward algorithms they replace, which live on here only as
// oracles.

// earliestQuadratic is the first-feasible scan: try every breakpoint as a
// start and check its whole window.
func earliestQuadratic(p *profile, s *scheduler, j *jobState) float64 {
	for from := range p.times {
		ok := true
		end := p.times[from] + j.estSpan
		for i := from; i < len(p.times) && p.times[i] < end; i++ {
			if p.nodes[i] < j.Nodes || (s.cl.BBCapacity > 0 && p.bb[i] < j.resv) {
				ok = false
				break
			}
		}
		if ok {
			return p.times[from]
		}
	}
	return p.times[len(p.times)-1]
}

// TestEarliestMatchesQuadraticScan checks the linear slot search against
// the quadratic scan on seeded random profiles. Breakpoints and spans sit
// on a coarse grid so windows often end exactly on a breakpoint.
func TestEarliestMatchesQuadraticScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < 2000; c++ {
		s := &scheduler{}
		if c%2 == 0 {
			s.cl.BBCapacity = 64 * units.GiB
		}
		p := &profile{}
		tm := float64(rng.Intn(100))
		for b := 1 + rng.Intn(40); b > 0; b-- {
			p.times = append(p.times, tm)
			p.nodes = append(p.nodes, rng.Intn(33))
			p.bb = append(p.bb, units.Bytes(rng.Intn(65))*units.GiB)
			tm += float64(1 + rng.Intn(20))
		}
		for q := 0; q < 20; q++ {
			j := &jobState{resv: units.Bytes(rng.Intn(65)) * units.GiB, estSpan: float64(rng.Intn(120))}
			j.Nodes = 1 + rng.Intn(32)
			if q%4 == 0 {
				j.estSpan += rng.Float64()
			}
			got, want := p.earliest(s, j), earliestQuadratic(p, s, j)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("case %d/%d: earliest %g, quadratic scan %g (job nodes=%d bb=%g span=%g, profile %+v)",
					c, q, got, want, j.Nodes, float64(j.resv), j.estSpan, *p)
			}
		}
	}
}

// releaseProfileFullScan is the release profile built by walking every
// job of the campaign.
func releaseProfileFullScan(s *scheduler) []release {
	now := s.eng.Now()
	var rel []release
	for _, j := range s.jobs {
		if !j.started || j.terminal != "" {
			continue
		}
		t := j.start + j.estSpan
		if t <= now {
			t = math.Nextafter(now, math.Inf(1))
		}
		rel = append(rel, release{t: t, nodes: j.Nodes, bb: j.resv})
	}
	sortReleases(rel)
	return rel
}

// planPickFull is the plan pass without the early exit: it plans every
// queued job, into a profile of its own.
func planPickFull(s *scheduler) []*jobState {
	now := s.eng.Now()
	prof := &profile{}
	prof.reset(now, s.freeNodes, s.freeBB, s.releaseProfile())
	var picks []*jobState
	for _, j := range s.queue {
		t := prof.earliest(s, j)
		if t <= now && fitsFree(s, j, prof.nodes[0], prof.bb[0]) {
			picks = append(picks, j)
		}
		prof.reserve(j, t)
	}
	return picks
}

// checkedPolicy wraps a policy and, at every pass, checks the scheduler's
// incremental state against full recomputations before delegating. For
// the plan policy it also runs the unpruned pass and checks the picks.
type checkedPolicy struct {
	policy
	name   string
	t      *testing.T
	passes *int
}

func (c checkedPolicy) pick(s *scheduler) []*jobState {
	*c.passes++
	for k := 1; k < len(s.queue); k++ {
		if !c.less(s.queue[k-1], s.queue[k]) {
			c.t.Fatalf("%s pass %d: queue out of policy order at %d (%s before %s)",
				c.name, *c.passes, k, s.queue[k-1].ID, s.queue[k].ID)
		}
	}
	var active []*jobState
	for _, j := range s.jobs {
		if j.started && j.terminal == "" {
			active = append(active, j)
		}
	}
	if !slices.Equal(s.active, active) {
		c.t.Fatalf("%s pass %d: active set %v, full scan %v", c.name, *c.passes, ids(s.active), ids(active))
	}
	want := releaseProfileFullScan(s)
	if got := s.releaseProfile(); !slices.Equal(got, want) {
		c.t.Fatalf("%s pass %d at t=%g: release profile %v, full scan %v", c.name, *c.passes, s.eng.Now(), got, want)
	}
	picks := c.policy.pick(s)
	if c.name == PolicyPlan {
		if full := planPickFull(s); !slices.Equal(picks, full) {
			c.t.Fatalf("plan pass %d at t=%g: picks %v, unpruned pass %v", *c.passes, s.eng.Now(), ids(picks), ids(full))
		}
	}
	return picks
}

func ids(jobs []*jobState) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}

// TestIncrementalStateMatchesFullScan runs seeded fault campaigns under
// every policy through checkedPolicy: at every pass the wait queue is in
// policy order (so it stays sorted across every dequeue and insertion),
// the active set is exactly the started, non-terminal jobs in submission
// order, the release profile is bit-identical to the full scan, and the
// plan policy's early-exiting pass picks what the unpruned pass picks.
// The wrapper must not change a single result.
func TestIncrementalStateMatchesFullScan(t *testing.T) {
	cases := []struct {
		cl     Cluster
		spec   workloads.CampaignSpec
		faults *FaultPlan
	}{
		{testCluster(), workloads.CampaignSpec{Jobs: 300, Seed: 31, MaxNodes: 4, BBMean: 2 * units.GiB},
			&FaultPlan{Seed: 32, Node: &faults.NodeProcess{Arrival: faults.Exp(1500), MTTR: 400}}},
		{scarceCell, workloads.CampaignSpec{Jobs: 400, Seed: 33, ArrivalMean: 110, MaxNodes: 16, BBMean: 4 * units.GiB},
			&FaultPlan{Seed: 34, Node: &faults.NodeProcess{Arrival: faults.Exp(2000), MTTR: 900}}},
	}
	for ci, c := range cases {
		jobs, err := workloads.Campaign(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range Policies() {
			pol, err := newPolicy(name)
			if err != nil {
				t.Fatal(err)
			}
			passes := 0
			cfg := Config{Cluster: c.cl, Policy: name, Jobs: jobs, Faults: c.faults}
			checked, err := run(cfg, checkedPolicy{policy: pol, name: name, t: t, passes: &passes})
			if err != nil {
				t.Fatal(err)
			}
			plain := mustRun(t, cfg)
			if !slices.Equal(checked.Jobs, plain.Jobs) || checked.Failed == 0 {
				t.Errorf("case %d %s: checked run differs from Run or had no failures (%d failed)", ci, name, checked.Failed)
			}
			if passes < len(jobs) {
				t.Errorf("case %d %s: only %d passes checked", ci, name, passes)
			}
		}
	}
}

// TestSubmitKeepsPolicyOrder drives submit directly with jobs arriving in
// an order the greedy policies must reshuffle, and checks the queue after
// every insertion and every dequeue.
func TestSubmitKeepsPolicyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, name := range Policies() {
		pol, err := newPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		// A scheduler with no free nodes never starts anything, so
		// submit only queues.
		s := &scheduler{
			eng: sim.NewEngine(), cl: Cluster{Nodes: 8, BBCapacity: units.TiB}, pol: pol,
			tr: trace.New("campaign", "cluster", nil), col: metrics.New("cluster", "campaign"),
		}
		sorted := func(when string) {
			t.Helper()
			if !sort.SliceIsSorted(s.queue, func(a, b int) bool { return pol.less(s.queue[a], s.queue[b]) }) {
				t.Fatalf("%s: queue out of order after %s", name, when)
			}
		}
		for i := 0; i < 200; i++ {
			j := &jobState{idx: i, resv: units.Bytes(rng.Intn(4)) * units.GiB}
			j.ID, j.Nodes = "j", 1+rng.Intn(8)
			s.submit(j)
			sorted("submit")
			if i%10 == 9 {
				for _, q := range s.queue {
					q.started = q.started || rng.Intn(3) == 0
				}
				s.dequeue()
				sorted("dequeue")
			}
		}
	}
}
