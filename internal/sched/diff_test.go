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

// refProfile is the plan profile as parallel arrays, searched with
// sort.SearchFloat64s: the layout the step-slice profile replaced.
type refProfile struct {
	times []float64
	nodes []int
	bb    []units.Bytes
}

func (p *refProfile) reset(now float64, freeNodes int, freeBB units.Bytes, rel []release) {
	p.times = append(p.times[:0], now)
	p.nodes = append(p.nodes[:0], freeNodes)
	p.bb = append(p.bb[:0], freeBB)
	for _, r := range rel {
		n := len(p.times)
		if r.t > p.times[n-1] {
			p.times = append(p.times, r.t)
			p.nodes = append(p.nodes, p.nodes[n-1]+r.nodes)
			p.bb = append(p.bb, p.bb[n-1]+r.bb)
		} else {
			p.nodes[n-1] += r.nodes
			p.bb[n-1] += r.bb
		}
	}
}

func (p *refProfile) earliest(s *scheduler, j *jobState) float64 {
	for i := 0; i < len(p.times); {
		k := p.blocked(s, j, i)
		if k < 0 {
			return p.times[i]
		}
		i = k + 1
	}
	return p.times[len(p.times)-1]
}

func (p *refProfile) blocked(s *scheduler, j *jobState, from int) int {
	end := p.times[from] + j.estSpan
	for i := from; i < len(p.times); i++ {
		if p.times[i] >= end {
			break
		}
		if p.nodes[i] < j.Nodes {
			return i
		}
		if s.cl.BBCapacity > 0 && p.bb[i] < j.resv {
			return i
		}
	}
	return -1
}

func (p *refProfile) reserve(j *jobState, t float64) {
	end := t + j.estSpan
	p.insertBreak(t)
	p.insertBreak(end)
	for i := sort.SearchFloat64s(p.times, t); i < len(p.times) && p.times[i] < end; i++ {
		p.nodes[i] -= j.Nodes
		p.bb[i] -= j.resv
	}
}

func (p *refProfile) insertBreak(t float64) {
	i := sort.SearchFloat64s(p.times, t)
	if i < len(p.times) && p.times[i] == t {
		return
	}
	if i == 0 {
		return
	}
	p.times = slices.Insert(p.times, i, t)
	p.nodes = slices.Insert(p.nodes, i, p.nodes[i-1])
	p.bb = slices.Insert(p.bb, i, p.bb[i-1])
}

// earliestQuadratic is the first-feasible scan: try every breakpoint as a
// start and check its whole window.
func earliestQuadratic(p *refProfile, s *scheduler, j *jobState) float64 {
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

// earliestOf runs the step profile's search for j as the plan pass does.
func earliestOf(p profile, s *scheduler, j *jobState) int {
	bb := j.resv
	if s.cl.BBCapacity <= 0 {
		bb = units.Bytes(math.Inf(-1))
	}
	return p.earliest(j.Nodes, bb, j.estSpan)
}

// sameProfile reports whether the step profile holds the reference's
// breakpoints, bit for bit.
func sameProfile(p profile, ref *refProfile) bool {
	if len(p) != len(ref.times) {
		return false
	}
	for i, st := range p {
		if math.Float64bits(st.t) != math.Float64bits(ref.times[i]) || st.nodes != ref.nodes[i] ||
			math.Float64bits(float64(st.bb)) != math.Float64bits(float64(ref.bb[i])) {
			return false
		}
	}
	return true
}

// TestEarliestMatchesQuadraticScan checks the linear slot search against
// the quadratic scan on seeded random profiles, then drives a sequence of
// reservations through the step profile and the parallel-array reference
// and compares every breakpoint after each, bounded and unbounded.
// Breakpoints and spans sit on a coarse grid so windows often end exactly
// on a breakpoint.
func TestEarliestMatchesQuadraticScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < 2000; c++ {
		s := &scheduler{}
		if c%2 == 0 {
			s.cl.BBCapacity = 64 * units.GiB
		}
		ref := &refProfile{}
		tm := float64(rng.Intn(100))
		for b := 1 + rng.Intn(40); b > 0; b-- {
			ref.times = append(ref.times, tm)
			ref.nodes = append(ref.nodes, rng.Intn(33))
			ref.bb = append(ref.bb, units.Bytes(rng.Intn(65))*units.GiB)
			tm += float64(1 + rng.Intn(20))
		}
		var p profile
		for i := range ref.times {
			p = append(p, step{t: ref.times[i], nodes: ref.nodes[i], bb: ref.bb[i]})
		}
		for q := 0; q < 20; q++ {
			j := &jobState{resv: units.Bytes(rng.Intn(65)) * units.GiB, estSpan: float64(rng.Intn(120))}
			j.Nodes = 1 + rng.Intn(32)
			if q%4 == 0 {
				j.estSpan += rng.Float64()
			}
			if q%3 == 0 { // inexact sums: every bb update must keep its order
				j.resv += units.Bytes(rng.Float64())
			}
			at, want := earliestOf(p, s, j), earliestQuadratic(ref, s, j)
			if got := p[at].t; math.Float64bits(got) != math.Float64bits(want) || got != ref.earliest(s, j) {
				t.Fatalf("case %d/%d: earliest %g, quadratic scan %g (job nodes=%d bb=%g span=%g, profile %+v)",
					c, q, got, want, j.Nodes, float64(j.resv), j.estSpan, p)
			}
			if q%2 == 0 {
				p.reserve(at, j.Nodes, j.resv, j.estSpan)
				ref.reserve(j, want)
				if !sameProfile(p, ref) {
					t.Fatalf("case %d/%d: reserve at %g for %g: steps %+v, reference %+v", c, q, want, j.estSpan, p, *ref)
				}
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
// queued job, into a parallel-array profile of its own.
func planPickFull(s *scheduler) []*jobState {
	now := s.eng.Now()
	prof := &refProfile{}
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
// every insertion and every dequeue, and each dequeue against a filter
// scan of the jobs not picked.
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
				var picks []*jobState
				for _, q := range s.queue {
					if rng.Intn(3) == 0 {
						q.started = true
						picks = append(picks, q)
					}
				}
				// The filter scan the copy-based dequeue replaced.
				var want []*jobState
				for _, q := range s.queue {
					if !q.started {
						want = append(want, q)
					}
				}
				s.dequeue(picks)
				if !slices.Equal(s.queue, want) {
					t.Fatalf("%s: dequeue kept %v, filter scan %v", name, ids(s.queue), ids(want))
				}
				sorted("dequeue")
			}
		}
	}
}
