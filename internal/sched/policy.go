package sched

import (
	"fmt"
	"slices"
	"sort"

	"bbwfsim/internal/units"
)

// Policy names, in catalog order: the classic queue disciplines (FCFS,
// FCFS+EASY backfill, plan-based conservative reservations after Kopański
// & Rządca's shared-BB plans) and the BBSimulator greedy family
// (MaxBurstBuffer, MaxParallel, DirectIO).
const (
	PolicyFCFS        = "fcfs"
	PolicyEASY        = "easy"
	PolicyPlan        = "plan"
	PolicyMaxBB       = "maxbb"
	PolicyMaxParallel = "maxparallel"
	PolicyDirectIO    = "directio"
)

// Policies lists every policy name in catalog order.
func Policies() []string {
	return []string{PolicyFCFS, PolicyEASY, PolicyPlan, PolicyMaxBB, PolicyMaxParallel, PolicyDirectIO}
}

// policy picks the queued jobs to start at a scheduling pass. pick must
// only return jobs that fit the free resources at the instant it is
// called, in start order; the scheduler dequeues them afterwards. less is
// the strict total order the scheduler keeps the wait queue in.
type policy interface {
	directIO() bool
	less(a, b *jobState) bool
	pick(s *scheduler) []*jobState
}

// submissionOrder queues jobs in submission order, so every insertion
// is an append.
type submissionOrder struct{}

func (submissionOrder) less(a, b *jobState) bool { return a.idx < b.idx }

func newPolicy(name string) (policy, error) {
	switch name {
	case PolicyFCFS:
		return fcfsPolicy{}, nil
	case PolicyEASY:
		return easyPolicy{}, nil
	case PolicyPlan:
		return planPolicy{prof: &profile{}, suf: &suffixMin{}}, nil
	case PolicyMaxBB:
		return greedyPolicy{id: PolicyMaxBB}, nil
	case PolicyMaxParallel:
		return greedyPolicy{id: PolicyMaxParallel}, nil
	case PolicyDirectIO:
		return directIOPolicy{}, nil
	case "":
		return nil, fmt.Errorf("sched: empty policy (want one of %v)", Policies())
	default:
		return nil, fmt.Errorf("sched: unknown policy %q (want one of %v)", name, Policies())
	}
}

// --- FCFS ----------------------------------------------------------------

// fcfsPolicy starts jobs in strict submission order and blocks on the
// first that does not fit: simple, fair, and head-of-line blocked.
type fcfsPolicy struct{ submissionOrder }

func (fcfsPolicy) directIO() bool { return false }

func (fcfsPolicy) pick(s *scheduler) []*jobState {
	var picks []*jobState
	freeNodes, freeBB := s.freeNodes, s.freeBB
	for _, j := range s.queue {
		if !fitsFree(s, j, freeNodes, freeBB) {
			break
		}
		picks = append(picks, j)
		freeNodes -= j.Nodes
		freeBB -= j.resv
	}
	return picks
}

// fitsFree reports whether the job's demands fit the given free
// resources: the live ones, or what a pass has left of them.
func fitsFree(s *scheduler, j *jobState, freeNodes int, freeBB units.Bytes) bool {
	if j.Nodes > freeNodes {
		return false
	}
	if s.cl.BBCapacity <= 0 {
		return true
	}
	return j.resv <= freeBB
}

// --- FCFS + EASY backfill ------------------------------------------------

// easyPolicy is FCFS with EASY (aggressive) backfilling: the head of the
// queue gets a reservation at the earliest instant both its nodes and its
// BB bytes free up (per the estimated releases of running jobs), and
// later jobs may start out of order only if they either finish (by
// estimate) before that shadow time or fit into the resources the head
// leaves spare at it. With correct estimates the head is never delayed —
// the classic starvation-freedom argument.
type easyPolicy struct{ submissionOrder }

func (easyPolicy) directIO() bool { return false }

func (easyPolicy) pick(s *scheduler) []*jobState {
	var picks []*jobState
	freeNodes, freeBB := s.freeNodes, s.freeBB
	i := 0
	// Start the prefix that fits, FCFS.
	for ; i < len(s.queue); i++ {
		j := s.queue[i]
		if !fitsFree(s, j, freeNodes, freeBB) {
			break
		}
		picks = append(picks, j)
		freeNodes -= j.Nodes
		freeBB -= j.resv
	}
	if i >= len(s.queue) {
		return picks
	}
	head := s.queue[i]
	// Shadow time: earliest estimated instant the head fits, walking the
	// projected releases of everything running plus the picks above.
	shadow, spareNodes, spareBB := shadowFor(s, head, picks, freeNodes, freeBB)
	now := s.eng.Now()
	for _, j := range s.queue[i+1:] {
		if !fitsFree(s, j, freeNodes, freeBB) {
			continue
		}
		endsBeforeShadow := now+j.estSpan <= shadow
		fitsSpare := j.Nodes <= spareNodes && (s.cl.BBCapacity <= 0 || j.resv <= spareBB)
		if !endsBeforeShadow && !fitsSpare {
			continue
		}
		picks = append(picks, j)
		freeNodes -= j.Nodes
		freeBB -= j.resv
		if !endsBeforeShadow {
			spareNodes -= j.Nodes
			spareBB -= j.resv
		}
	}
	return picks
}

// shadowFor computes the head job's reservation: the earliest estimated
// time its demands fit, plus the spare resources left at that instant
// after the head takes its share. Projected releases clamp to the future,
// so underestimated walltimes delay the shadow rather than breaking it.
func shadowFor(s *scheduler, head *jobState, picks []*jobState, freeNodes int, freeBB units.Bytes) (float64, int, units.Bytes) {
	now := s.eng.Now()
	rel := s.releaseProfile()
	// The jobs picked this pass are about to start: append their
	// estimated releases too.
	for _, j := range picks {
		rel = append(rel, release{t: now + j.estSpan, nodes: j.Nodes, bb: j.resv})
	}
	s.rel = rel // keep the buffer the picks grew
	sortReleases(rel)
	nodes, bb := freeNodes, freeBB
	for _, r := range rel {
		nodes += r.nodes
		bb += r.bb
		if nodes >= head.Nodes && (s.cl.BBCapacity <= 0 || bb >= head.resv) {
			return r.t, nodes - head.Nodes, bb - head.resv
		}
	}
	// No finite release satisfies the head (bounded-capacity corner:
	// everything running must drain). Reserve "after everything".
	last := now
	if n := len(rel); n > 0 {
		last = rel[n-1].t
	}
	return last, nodes - head.Nodes, bb - head.resv
}

func sortReleases(rel []release) {
	sort.Slice(rel, func(a, b int) bool {
		if rel[a].t < rel[b].t {
			return true
		}
		if rel[a].t > rel[b].t {
			return false
		}
		return rel[a].nodes > rel[b].nodes
	})
}

// --- plan-based conservative reservations --------------------------------

// planPolicy extends backfilling to a full plan, after Kopański & Rządca's
// plan-based burst-buffer scheduling: every queued job — not just the
// head — gets a reservation of nodes AND BB bytes at its earliest feasible
// slot in a time-indexed availability profile, in submission order. A job
// starts now exactly when its planned slot is now. Conservative
// backfilling with a two-resource profile: no job's plan is ever pushed
// back by a later arrival.
type planPolicy struct {
	submissionOrder
	prof *profile   // rebuilt every pass into the same buffers
	suf  *suffixMin // likewise
}

func (planPolicy) directIO() bool { return false }

// pick plans the queue in order and starts the jobs whose slot is now. The
// pass stops once the profile at now fits no remaining job: a pick depends
// only on the reservations made before it in the pass, reserve only
// subtracts, and insertBreak never inserts before the origin, so index 0
// never grows during a pass; a job starts now only if it fits there.
func (pl planPolicy) pick(s *scheduler) []*jobState {
	now := s.eng.Now()
	prof := pl.prof
	prof.reset(now, s.freeNodes, s.freeBB, s.releaseProfile())
	pl.suf.sweep(s.queue)
	var picks []*jobState
	for i, j := range s.queue {
		if prof.nodes[0] < pl.suf.nodes[i] || (s.cl.BBCapacity > 0 && prof.bb[0] < pl.suf.bb[i]) {
			break
		}
		t := prof.earliest(s, j)
		// Index 0 is the profile at now: releases clamp past now, so every
		// other breakpoint is strictly later.
		if t <= now && fitsFree(s, j, prof.nodes[0], prof.bb[0]) {
			picks = append(picks, j)
		}
		prof.reserve(j, t)
	}
	return picks
}

// suffixMin holds, for each queue position i, the smallest node count and
// BB reservation among queue[i:].
type suffixMin struct {
	nodes []int
	bb    []units.Bytes
}

// sweep fills the minima in one backward pass over the queue.
func (m *suffixMin) sweep(queue []*jobState) {
	n := len(queue)
	m.nodes = slices.Grow(m.nodes[:0], n)[:n]
	m.bb = slices.Grow(m.bb[:0], n)[:n]
	for i := n - 1; i >= 0; i-- {
		nodes, bb := queue[i].Nodes, queue[i].resv
		if i+1 < n {
			nodes = min(nodes, m.nodes[i+1])
			bb = min(bb, m.bb[i+1])
		}
		m.nodes[i], m.bb[i] = nodes, bb
	}
}

// profile is a breakpoint list of projected free resources over time.
type profile struct {
	times []float64
	nodes []int
	bb    []units.Bytes
}

// reset rebuilds the availability timeline from the current free state
// and the projected releases of running jobs.
func (p *profile) reset(now float64, freeNodes int, freeBB units.Bytes, rel []release) {
	p.times = append(p.times[:0], now)
	p.nodes = append(p.nodes[:0], freeNodes)
	p.bb = append(p.bb[:0], freeBB)
	for _, r := range rel { // already sorted by time
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

// earliest finds the first breakpoint from which the job's demands stay
// satisfied for its whole estimated span. A window from breakpoint i
// blocked at breakpoint k blocks every start in [i, k] too — their windows
// all reach k — so the search resumes at k+1 and visits each breakpoint
// once.
func (p *profile) earliest(s *scheduler, j *jobState) float64 {
	for i := 0; i < len(p.times); {
		k := p.blocked(s, j, i)
		if k < 0 {
			return p.times[i]
		}
		i = k + 1
	}
	return p.times[len(p.times)-1]
}

// blocked returns the first breakpoint in [t, t+estSpan), for t the
// breakpoint at index from, whose free resources fall short of the job's
// demands, or -1 if the demands hold over the whole window. Breakpoints
// are sorted, so only indices ≥ from can intersect the window.
func (p *profile) blocked(s *scheduler, j *jobState, from int) int {
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

// reserve subtracts the job's demands from the profile over its planned
// window, inserting breakpoints as needed.
func (p *profile) reserve(j *jobState, t float64) {
	end := t + j.estSpan
	p.insertBreak(t)
	p.insertBreak(end)
	for i := sort.SearchFloat64s(p.times, t); i < len(p.times) && p.times[i] < end; i++ {
		p.nodes[i] -= j.Nodes
		p.bb[i] -= j.resv
	}
}

// insertBreak splits the profile at time t, copying the value in force.
func (p *profile) insertBreak(t float64) {
	i := sort.SearchFloat64s(p.times, t)
	if i < len(p.times) && p.times[i] <= t && t <= p.times[i] {
		return // exact breakpoint already present
	}
	if i == 0 {
		// Before the profile's origin: clamp to the origin.
		return
	}
	p.times = append(p.times, 0)
	p.nodes = append(p.nodes, 0)
	p.bb = append(p.bb, 0)
	copy(p.times[i+1:], p.times[i:])
	copy(p.nodes[i+1:], p.nodes[i:])
	copy(p.bb[i+1:], p.bb[i:])
	p.times[i] = t
	p.nodes[i] = p.nodes[i-1]
	p.bb[i] = p.bb[i-1]
}

// --- BBSimulator greedy family -------------------------------------------

// greedyPolicy is the MaxBurstBuffer / MaxParallel pair: its queue is
// ordered by descending BB demand (maximize buffer utilization) or
// ascending node count (maximize running jobs), and every pass greedily
// starts everything that fits. Neither is starvation-free in steady
// state; on finite campaigns the queue drains when arrivals stop.
type greedyPolicy struct{ id string }

func (greedyPolicy) directIO() bool { return false }

// less orders MaxBB by descending BB demand and MaxParallel by ascending
// node count, then ascending BB demand; both break ties by submission.
func (g greedyPolicy) less(a, b *jobState) bool {
	if g.id == PolicyMaxBB {
		if a.resv > b.resv {
			return true
		}
		if a.resv < b.resv {
			return false
		}
		return a.idx < b.idx
	}
	if a.Nodes != b.Nodes {
		return a.Nodes < b.Nodes
	}
	if a.resv < b.resv {
		return true
	}
	if a.resv > b.resv {
		return false
	}
	return a.idx < b.idx
}

func (g greedyPolicy) pick(s *scheduler) []*jobState {
	var picks []*jobState
	freeNodes, freeBB := s.freeNodes, s.freeBB
	for _, j := range s.queue {
		if !fitsFree(s, j, freeNodes, freeBB) {
			continue
		}
		picks = append(picks, j)
		freeNodes -= j.Nodes
		freeBB -= j.resv
	}
	return picks
}

// --- DirectIO ------------------------------------------------------------

// directIOPolicy bypasses the burst buffer entirely: jobs reserve no BB
// bytes and stage through the (slower) PFS channel while holding their
// nodes — the BBSimulator baseline that shows what the buffer buys.
// Queueing is plain FCFS on nodes.
type directIOPolicy struct{ submissionOrder }

func (directIOPolicy) directIO() bool { return true }

func (directIOPolicy) pick(s *scheduler) []*jobState {
	var picks []*jobState
	freeNodes := s.freeNodes
	for _, j := range s.queue {
		if j.Nodes > freeNodes {
			break
		}
		picks = append(picks, j)
		freeNodes -= j.Nodes
	}
	return picks
}
