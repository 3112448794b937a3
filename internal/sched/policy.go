package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"

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
// called, in queue order, appended to the scheduler's empty pick buffer
// s.picks; the scheduler starts and dequeues them afterwards. less is the
// strict total order the scheduler keeps the wait queue in.
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
	picks := s.picks
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
	picks := s.picks
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

// sortReleases orders releases by time, then by descending node count.
// The sort is unstable, so the input order is part of the result.
func sortReleases(rel []release) {
	slices.SortFunc(rel, func(a, b release) int {
		if a.t < b.t {
			return -1
		}
		if a.t > b.t {
			return 1
		}
		return cmp.Compare(b.nodes, a.nodes)
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
	prof *profile   // rebuilt every pass into the same buffer
	suf  *suffixMin // likewise
}

func (planPolicy) directIO() bool { return false }

// pick plans the queue in order and starts the jobs whose slot is now. The
// pass stops once the profile at now fits no remaining job: a pick depends
// only on the reservations made before it in the pass, reserve only
// subtracts, and never inserts a step before the origin, so step 0 never
// grows during a pass; a job starts now only if it fits there.
func (pl planPolicy) pick(s *scheduler) []*jobState {
	prof := pl.prof
	prof.reset(s.eng.Now(), s.freeNodes, s.freeBB, s.releaseProfile())
	pl.suf.sweep(s.queue)
	bounded := s.cl.BBCapacity > 0
	picks := s.picks
	for i, j := range s.queue {
		at0 := (*prof)[0]
		if at0.nodes < pl.suf.nodes[i] || (bounded && at0.bb < pl.suf.bb[i]) {
			break
		}
		bb := j.resv
		if !bounded {
			bb = units.Bytes(math.Inf(-1))
		}
		at := prof.earliest(j.Nodes, bb, j.estSpan)
		// Step 0 is the profile at now: releases clamp past now, so every
		// other step is strictly later.
		if at == 0 && fitsFree(s, j, at0.nodes, at0.bb) {
			picks = append(picks, j)
		}
		prof.reserve(at, j.Nodes, j.resv, j.estSpan)
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

// step is the projected free resources from instant t to the next step.
type step struct {
	t     float64
	nodes int
	bb    units.Bytes
}

// profile is the availability timeline: steps in strictly increasing time.
type profile []step

// reset rebuilds the availability timeline from the current free state
// and the projected releases of running jobs.
func (p *profile) reset(now float64, freeNodes int, freeBB units.Bytes, rel []release) {
	steps := append((*p)[:0], step{t: now, nodes: freeNodes, bb: freeBB})
	for _, r := range rel { // already sorted by time
		last := &steps[len(steps)-1]
		if r.t > last.t {
			steps = append(steps, step{t: r.t, nodes: last.nodes + r.nodes, bb: last.bb + r.bb})
		} else {
			last.nodes += r.nodes
			last.bb += r.bb
		}
	}
	*p = steps
}

// earliest returns the first step from which nodes and bb stay free for
// span, or the last step if none does; bb −Inf leaves BB unchecked. A
// window from step i blocked at step k blocks every start in [i, k] too
// (their windows all reach k), so the search resumes at k+1 and visits
// each step once.
func (p profile) earliest(nodes int, bb units.Bytes, span float64) int {
	for i := 0; i < len(p); {
		k := p.blocked(i, nodes, bb, span)
		if k < 0 {
			return i
		}
		i = k + 1
	}
	return len(p) - 1
}

// blocked returns the first step in [t, t+span), for t the start of step
// from, whose free resources fall short of nodes or bb, or -1 if none
// does.
func (p profile) blocked(from, nodes int, bb units.Bytes, span float64) int {
	end := p[from].t + span
	for i := from; i < len(p) && p[i].t < end; i++ {
		if p[i].nodes < nodes || p[i].bb < bb {
			return i
		}
	}
	return -1
}

// reserve subtracts the demands over the window from step at for span,
// splitting the step the window ends in: the new step copies the value in
// force before the subtraction.
func (p *profile) reserve(at, nodes int, bb units.Bytes, span float64) {
	steps := *p
	end := steps[at].t + span
	k := at
	for k < len(steps) && steps[k].t < end {
		k++
	}
	if k == len(steps) || steps[k].t > end {
		steps = slices.Insert(steps, k, step{t: end, nodes: steps[k-1].nodes, bb: steps[k-1].bb})
	}
	for i := at; i < k; i++ {
		steps[i].nodes -= nodes
		steps[i].bb -= bb
	}
	*p = steps
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
	picks := s.picks
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
	picks := s.picks
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
