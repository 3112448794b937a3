// Package sched is the multi-tenant batch-scheduler layer: it admits an
// SWF-style campaign of competing jobs (internal/workloads) onto one
// shared cluster — rigid node allocations plus per-job burst-buffer
// reservations — under a pluggable scheduling policy, and accounts per-job
// wait, response, and bounded slowdown.
//
// The job model is the BBSimulator three-phase shape: stage-in moves the
// job's input bytes through the burst buffer's aggregate staging channel,
// the compute phase runs for the job's actual runtime, and stage-out moves
// the output bytes back. A job holds its nodes and its BB reservation for
// the whole active span; the burst buffer's value under this model is the
// staging channel's bandwidth advantage over the PFS path DirectIO jobs
// take. Staging channels are max–min fair: concurrent transfers share the
// aggregate bandwidth equally, so BB pressure stretches stage phases
// exactly as concurrent pipelines stretch I/O in the single-workflow
// simulator.
//
// Everything is deterministic: the campaign runs on a sim.Engine, fault
// arrivals draw from private seeded streams (internal/faults.Dist), and
// the trace, metrics snapshot, and per-job statistics replay bit-for-bit
// for a given Config.
package sched

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"bbwfsim/internal/core"
	"bbwfsim/internal/faults"
	"bbwfsim/internal/metrics"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/sim"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workloads"
)

// Cluster is the shared platform a campaign contends for.
type Cluster struct {
	// Nodes is the compute-node count; jobs request whole nodes.
	Nodes int
	// BBCapacity is the total burst-buffer bytes reservable at once.
	BBCapacity units.Bytes
	// BBBandwidth is the aggregate bandwidth of the BB staging channel
	// (stage-in and stage-out of three-phase jobs), max–min shared.
	BBBandwidth units.Bandwidth
	// PFSBandwidth is the aggregate bandwidth of the direct PFS channel
	// DirectIO jobs stage through.
	PFSBandwidth units.Bandwidth
}

// Validate reports configuration errors.
func (c *Cluster) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("sched: cluster needs nodes, got %d", c.Nodes)
	}
	if c.BBCapacity < 0 {
		return fmt.Errorf("sched: negative BB capacity %v", c.BBCapacity)
	}
	if c.BBBandwidth <= 0 || c.PFSBandwidth <= 0 {
		return fmt.Errorf("sched: channel bandwidths must be positive, got BB %v PFS %v",
			c.BBBandwidth, c.PFSBandwidth)
	}
	return nil
}

// ClusterFromPlatform derives a campaign cluster from a single-workflow
// platform configuration (Table I presets): the BB staging channel gets
// the burst buffer's aggregate disk bandwidth (per node for on-node BBs),
// the direct channel the PFS's, and the reservable capacity the BB
// capacity (likewise summed across nodes when the BB is node-local; an
// unbounded preset maps to unbounded reservations).
func ClusterFromPlatform(cfg platform.Config) Cluster {
	cl := Cluster{
		Nodes:        cfg.Nodes,
		BBCapacity:   cfg.BB.Capacity,
		BBBandwidth:  cfg.BB.DiskBW,
		PFSBandwidth: cfg.PFS.DiskBW,
	}
	if cfg.BBKind == platform.BBOnNode {
		cl.BBCapacity *= units.Bytes(cfg.Nodes)
		cl.BBBandwidth *= units.Bandwidth(cfg.Nodes)
	}
	return cl
}

// FaultPlan configures the campaign's fault injection: whole-node
// failures with repair, reusing the faults package's renewal-process
// configuration and distributions. A node failure kills the job holding
// the node (jobs are rigid: losing one node loses the job), releasing its
// resources; the node repairs after MTTR.
type FaultPlan struct {
	// Seed drives the arrival and victim draws (private stream).
	Seed int64
	// Node is the node-failure process; nil disables fault injection.
	Node *faults.NodeProcess
}

// Outcome is a job's terminal state.
type Outcome string

const (
	// Completed jobs ran all three phases.
	Completed Outcome = "completed"
	// Failed jobs were killed by a node failure mid-run.
	Failed Outcome = "failed"
	// Rejected jobs demanded more nodes or BB bytes than the whole
	// cluster has; they never entered the queue.
	Rejected Outcome = "rejected"
)

// slowdownTau is the bounded-slowdown threshold (seconds): BSLD =
// max(1, response / max(span, tau)), the standard guard against tiny jobs
// dominating the metric.
const slowdownTau = 10.0

// JobStat is one job's accounting.
type JobStat struct {
	ID      string
	Nodes   int
	BB      units.Bytes
	Outcome Outcome
	// Submit, Start, and End are the job's lifecycle instants; Start and
	// End are zero for rejected jobs.
	Submit float64
	Start  float64
	End    float64
	// Wait is Start − Submit. Response is End − Submit and Slowdown the
	// bounded slowdown; both are zero unless the job completed.
	Wait     float64
	Response float64
	Slowdown float64
}

// Result is one campaign's outcome.
type Result struct {
	Policy string
	// Jobs holds per-job statistics in submission order.
	Jobs []JobStat
	// Terminal-outcome tallies; Submitted counts every job handed to Run
	// (Submitted = Completed + Failed + Rejected on return).
	Submitted, Completed, Failed, Rejected int
	// Makespan is the virtual time of the last event.
	Makespan float64
	// NodeFailures counts injected node outages.
	NodeFailures int
	// Events is the number of discrete events the kernel executed and
	// PeakPending the event queue's high-water mark — the campaign's
	// deterministic cost metrics, mirroring core.Result.
	Events      uint64
	PeakPending int
	// Trace is the campaign's trace: its event log only when
	// Config.TraceSink is or holds trace.Retain.
	Trace *trace.Trace
	// Metrics is the campaign's observability snapshot.
	Metrics *metrics.Snapshot
}

// MeanWait, MeanResponse, and MeanSlowdown average over completed jobs
// (zero if none completed).
func (r *Result) MeanWait() float64 { return r.meanOver(func(j *JobStat) float64 { return j.Wait }) }

// MeanResponse averages submit→end response time over completed jobs.
func (r *Result) MeanResponse() float64 {
	return r.meanOver(func(j *JobStat) float64 { return j.Response })
}

// MeanSlowdown averages bounded slowdown over completed jobs.
func (r *Result) MeanSlowdown() float64 {
	return r.meanOver(func(j *JobStat) float64 { return j.Slowdown })
}

func (r *Result) meanOver(f func(*JobStat) float64) float64 {
	sum, n := 0.0, 0
	for i := range r.Jobs {
		if r.Jobs[i].Outcome == Completed {
			sum += f(&r.Jobs[i])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Config is one campaign specification.
type Config struct {
	Cluster Cluster
	// Policy names the scheduling policy (see Policies): fcfs, easy,
	// plan, maxbb, maxparallel, directio.
	Policy string
	// Jobs is the campaign, sorted by non-decreasing Submit time.
	Jobs []workloads.Job
	// Faults optionally injects node failures.
	Faults *FaultPlan
	// Metrics optionally receives the campaign's observations; nil
	// builds a private collector so Result.Metrics is always populated.
	Metrics *metrics.Collector
	// TraceSink receives the campaign's events (see trace.New). Nil — the
	// default — keeps only per-kind counts; trace.Retain keeps the event
	// log in Result.Trace. The caller owns a streaming sink and must Close
	// it after the run.
	TraceSink trace.Sink
}

// jobState tracks one admitted job through the scheduler.
type jobState struct {
	workloads.Job
	idx int // submission index

	// resv is the BB reservation the job holds while active: BBDemand
	// under BB policies, zero under DirectIO.
	resv units.Bytes
	// estSpan is the span the scheduler plans with: walltime estimate
	// plus both stage phases at full channel bandwidth.
	estSpan float64

	started  bool
	start    float64
	nodes    []int // held node indices
	transfer *transfer
	phaseEnd sim.Handle
	inRun    bool
	terminal Outcome
	end      float64
}

// scheduler is the campaign engine.
type scheduler struct {
	eng *sim.Engine
	cl  Cluster
	pol policy
	tr  *trace.Trace
	col *metrics.Collector

	jobs  []*jobState
	queue []*jobState // waiting, in pol.less order
	// active holds the started, non-terminal jobs in submission order:
	// releaseProfile walks it, and sortReleases' unstable sort makes the
	// input order part of the result.
	active []*jobState
	rel    []release // releaseProfile's buffer, reused across passes
	// picks is the pick buffer policies append to. A pass never re-enters
	// schedule, so one buffer serves every pass.
	picks []*jobState

	nodeDown  []bool // node index → failed
	nodeOwner []int  // node index → holding job idx, -1 free
	up        []int  // nodeFailure's buffer of up nodes, reused across arrivals
	freeNodes int    // up ∧ unheld
	freeBB    units.Bytes

	heldNodes int // Σ nodes of active jobs
	heldBB    units.Bytes
	// peakNodes and peakBB are the high-water marks of heldNodes and
	// heldBB, emitted as gauges once the run ends.
	peakNodes int
	peakBB    units.Bytes

	// Completion series, held at the first completion so that a campaign
	// completing nothing still leaves them out of the snapshot.
	doneHeld                                  bool
	doneJobs, doneWait, doneResponse, doneSld metrics.HeldCounter
	doneWaitHist                              metrics.HeldHistogram

	bbChan, pfsChan *channel

	rng       *rand.Rand
	plan      *FaultPlan
	failsLeft int

	completed, failed, rejected, nodeFailures int
	pending                                   int // admitted, not yet terminal
	toSubmit                                  int // submit events not yet fired

	// Event and transfer callbacks, made once per campaign: each gets a
	// job or node index, so queuing an event or a transfer allocates no
	// closure.
	submitFn, runFn, stageOutFn, finishFn, failFn, repairFn func(tag uint64)
}

// Run executes one campaign to completion and returns its accounting. It
// errors on invalid configurations and on scheduler deadlock (the event
// queue drained with jobs still waiting) — the hard tripwire behind the
// harness's no-starvation property.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	pol, err := newPolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	return run(cfg, pol)
}

// run is Run with the policy resolved.
func run(cfg Config, pol policy) (*Result, error) {
	for i := range cfg.Jobs {
		if err := cfg.Jobs[i].Validate(); err != nil {
			return nil, err
		}
		if i > 0 && cfg.Jobs[i].Submit < cfg.Jobs[i-1].Submit {
			return nil, fmt.Errorf("sched: jobs out of submit order at index %d", i)
		}
	}
	if cfg.Faults != nil && cfg.Faults.Node != nil {
		if err := cfg.Faults.Node.Arrival.Validate("node failure"); err != nil {
			return nil, err
		}
		if cfg.Faults.Node.MTTR <= 0 {
			return nil, fmt.Errorf("sched: node MTTR must be positive, got %g", cfg.Faults.Node.MTTR)
		}
	}

	tr := trace.New("campaign-"+cfg.Policy, "cluster", cfg.TraceSink)
	col := cfg.Metrics
	if col == nil {
		col = metrics.New("cluster", "campaign-"+cfg.Policy)
	}
	s := &scheduler{
		eng:       sim.NewEngine(),
		cl:        cfg.Cluster,
		pol:       pol,
		tr:        tr,
		col:       col,
		nodeDown:  make([]bool, cfg.Cluster.Nodes),
		nodeOwner: make([]int, cfg.Cluster.Nodes),
		freeNodes: cfg.Cluster.Nodes,
		freeBB:    cfg.Cluster.BBCapacity,
	}
	s.submitFn = func(i uint64) { s.submit(s.jobs[i]) }
	s.runFn = func(i uint64) { s.beginRun(s.jobs[i]) }
	s.stageOutFn = func(i uint64) { s.beginStageOut(s.jobs[i]) }
	s.finishFn = func(i uint64) { s.finish(s.jobs[i]) }
	s.failFn = func(uint64) { s.nodeFailure() }
	s.repairFn = func(i uint64) { s.nodeRepair(int(i)) }
	for i := range s.nodeOwner {
		s.nodeOwner[i] = -1
	}
	s.bbChan = newChannel(s.eng, float64(cfg.Cluster.BBBandwidth))
	s.pfsChan = newChannel(s.eng, float64(cfg.Cluster.PFSBandwidth))

	s.toSubmit = len(cfg.Jobs)
	s.eng.Reserve(len(cfg.Jobs))
	states := make([]jobState, len(cfg.Jobs))
	s.jobs = make([]*jobState, len(cfg.Jobs))
	for i := range cfg.Jobs {
		j := &states[i]
		*j = jobState{Job: cfg.Jobs[i], idx: i, resv: cfg.Jobs[i].BBDemand}
		if pol.directIO() {
			j.resv = 0
		}
		j.estSpan = s.estimateSpan(&cfg.Jobs[i])
		s.jobs[i] = j
		s.eng.AfterTag(j.Submit, s.submitFn, uint64(i)) // at 0, the same as At(j.Submit)
	}
	if cfg.Faults != nil && cfg.Faults.Node != nil {
		s.plan = cfg.Faults
		s.rng = rand.New(rand.NewSource(cfg.Faults.Seed))
		s.failsLeft = cfg.Faults.Node.Budget
		if s.failsLeft == 0 {
			s.failsLeft = math.MaxInt
		}
		s.eng.AfterTag(s.plan.Node.Arrival.Sample(s.rng), s.failFn, 0)
	}

	s.eng.Run()
	if s.peakNodes > 0 { // some job started
		col.GaugeMax(metrics.SchedNodesPeak, metrics.Key{}, float64(s.peakNodes))
		col.GaugeMax(metrics.SchedBBPeakBytes, metrics.Key{}, float64(s.peakBB))
	}
	if s.pending > 0 {
		return nil, fmt.Errorf("sched: %s deadlocked with %d jobs still queued or running at t=%g",
			cfg.Policy, s.pending, s.eng.Now())
	}

	res := &Result{
		Policy:       cfg.Policy,
		Submitted:    len(cfg.Jobs),
		Completed:    s.completed,
		Failed:       s.failed,
		Rejected:     s.rejected,
		Makespan:     tr.Makespan(),
		NodeFailures: s.nodeFailures,
		Events:       s.eng.EventsFired(),
		PeakPending:  s.eng.MaxPending(),
		Trace:        tr,
		Jobs:         make([]JobStat, 0, len(s.jobs)),
	}
	for _, j := range s.jobs {
		st := JobStat{
			ID: j.ID, Nodes: j.Nodes, BB: j.resv,
			Outcome: j.terminal, Submit: j.Submit,
		}
		if j.started {
			st.Start = j.start
			st.End = j.end
			st.Wait = j.start - j.Submit
		}
		if j.terminal == Completed {
			st.Response = j.end - j.Submit
			span := j.end - j.start
			st.Slowdown = st.Response / math.Max(span, slowdownTau)
			if st.Slowdown < 1 {
				st.Slowdown = 1
			}
		}
		res.Jobs = append(res.Jobs, st)
	}
	col.Add(metrics.SchedJobsTotal, metrics.Key{Op: metrics.OutcomeSubmitted}, float64(res.Submitted))
	col.Add(metrics.SimEventsTotal, metrics.Key{}, float64(res.Events))
	col.GaugeMax(metrics.SimQueuePeakEvents, metrics.Key{}, float64(res.PeakPending))
	col.GaugeMax(metrics.MakespanSeconds, metrics.Key{}, res.Makespan)
	res.Metrics = col.Snapshot()
	return res, nil
}

// Core folds the campaign into the single-run result shape (core.Result):
// makespan, trace, kernel cost, fault tallies, metrics snapshot, and the
// campaign's per-job accounting aggregated under Result.Sched. Callers
// that treat workflow runs and campaigns uniformly (CLIs, experiment
// plumbing) consume this view.
func (r *Result) Core() *core.Result {
	return &core.Result{
		Makespan:    r.Makespan,
		Trace:       r.Trace,
		Events:      r.Events,
		PeakPending: r.PeakPending,
		Faults:      core.FaultStats{NodeFailures: r.NodeFailures},
		Metrics:     r.Metrics,
		Sched: &core.SchedStats{
			Policy:       r.Policy,
			Submitted:    r.Submitted,
			Completed:    r.Completed,
			Failed:       r.Failed,
			Rejected:     r.Rejected,
			NodeFailures: r.NodeFailures,
			MeanWait:     r.MeanWait(),
			MeanResponse: r.MeanResponse(),
			MeanSlowdown: r.MeanSlowdown(),
		},
	}
}

// estimateSpan is the planner's estimate of a job's active span: the
// walltime estimate plus both stage phases at full (uncontended) channel
// bandwidth. Underestimates are survivable — profiles clamp stale
// releases to "now" — exactly as real backfill schedulers survive wrong
// walltimes.
func (s *scheduler) estimateSpan(j *workloads.Job) float64 {
	bw := float64(s.cl.BBBandwidth)
	if s.pol.directIO() {
		bw = float64(s.cl.PFSBandwidth)
	}
	return j.Walltime + float64(j.StageIn+j.StageOut)/bw
}

// submit admits or rejects an arriving job, then reschedules.
func (s *scheduler) submit(j *jobState) {
	now := s.eng.Now()
	s.toSubmit--
	s.tr.Record(now, trace.JobSubmit, j.ID, trace.Submit(j.Nodes, float64(j.resv), j.estSpan))
	if j.Nodes > s.cl.Nodes || (s.cl.BBCapacity > 0 && j.resv > s.cl.BBCapacity) {
		j.terminal = Rejected
		s.rejected++
		s.tr.Record(now, trace.JobReject, j.ID, trace.Reject(j.Nodes, s.cl.Nodes, float64(j.resv), float64(s.cl.BBCapacity)))
		s.col.Add(metrics.SchedJobsTotal, metrics.Key{Op: metrics.OutcomeRejected}, 1)
		return
	}
	s.pending++
	// Insert at the job's place in policy order. The new job has the
	// highest submission index, so submission-ordered queues append.
	at := sort.Search(len(s.queue), func(k int) bool { return s.pol.less(j, s.queue[k]) })
	s.queue = slices.Insert(s.queue, at, j)
	s.schedule()
}

// schedule runs one policy pass: it asks the policy for the jobs to start
// now and starts them. Passes fire on every submit, completion, failure,
// and repair.
func (s *scheduler) schedule() {
	if len(s.queue) == 0 {
		return
	}
	picks := s.pol.pick(s)
	for _, j := range picks {
		s.startJob(j)
	}
	if len(picks) > 0 {
		s.dequeue(picks)
	}
	s.picks = picks[:0]
}

// dequeue removes the picks, which are in queue order, from the wait
// queue: it finds each by binary search and moves the runs between them
// down by copy.
func (s *scheduler) dequeue(picks []*jobState) {
	q := s.queue
	kept, from := 0, 0
	for _, p := range picks {
		at := from + sort.Search(len(q)-from, func(k int) bool { return !s.pol.less(q[from+k], p) })
		kept += copy(q[kept:], q[from:at])
		from = at + 1
	}
	kept += copy(q[kept:], q[from:])
	s.queue = q[:kept]
}

// startJob allocates nodes (lowest free indices first) and the BB
// reservation, then launches stage-in.
func (s *scheduler) startJob(j *jobState) {
	now := s.eng.Now()
	j.started = true
	j.start = now
	j.nodes = make([]int, 0, j.Nodes)
	for idx := 0; idx < len(s.nodeOwner) && len(j.nodes) < j.Nodes; idx++ {
		if s.nodeOwner[idx] == -1 && !s.nodeDown[idx] {
			s.nodeOwner[idx] = j.idx
			j.nodes = append(j.nodes, idx)
		}
	}
	if len(j.nodes) < j.Nodes {
		panic(fmt.Sprintf("sched: policy started %s with %d free nodes for a %d-node job",
			j.ID, s.freeNodes, j.Nodes))
	}
	at, _ := slices.BinarySearchFunc(s.active, j.idx, bySubmission)
	s.active = slices.Insert(s.active, at, j)
	s.freeNodes -= j.Nodes
	s.heldNodes += j.Nodes
	if s.cl.BBCapacity > 0 {
		s.freeBB -= j.resv
		if s.freeBB < 0 {
			panic(fmt.Sprintf("sched: BB over-reserved starting %s: free %g", j.ID, float64(s.freeBB)))
		}
	}
	s.heldBB += j.resv
	s.peakNodes = max(s.peakNodes, s.heldNodes)
	s.peakBB = max(s.peakBB, s.heldBB)
	s.tr.Record(now, trace.JobStart, j.ID, trace.Held(j.Nodes, float64(j.resv)))
	s.stage(j, float64(j.StageIn), s.runFn)
}

// bySubmission compares a job's submission index with idx, the order of
// the active set.
func bySubmission(j *jobState, idx int) int { return j.idx - idx }

// stage moves bytes through the job's staging channel, then calls done
// with the job's index.
func (s *scheduler) stage(j *jobState, bytes float64, done func(tag uint64)) {
	ch := s.bbChan
	if s.pol.directIO() {
		ch = s.pfsChan
	}
	j.transfer = ch.add(bytes, done, uint64(j.idx))
}

func (s *scheduler) beginRun(j *jobState) {
	now := s.eng.Now()
	j.transfer = nil
	j.inRun = true
	s.tr.Record(now, trace.JobRun, j.ID, trace.Event{})
	j.phaseEnd = s.eng.AfterTag(j.Runtime, s.stageOutFn, uint64(j.idx))
}

func (s *scheduler) beginStageOut(j *jobState) {
	now := s.eng.Now()
	j.inRun = false
	s.tr.Record(now, trace.JobStageOut, j.ID, trace.Event{})
	s.stage(j, float64(j.StageOut), s.finishFn)
}

// finish completes a job: releases resources, commits accounting, and
// reschedules.
func (s *scheduler) finish(j *jobState) {
	now := s.eng.Now()
	j.transfer = nil
	j.terminal = Completed
	j.end = now
	s.completed++
	s.pending--
	s.release(j)
	s.tr.Record(now, trace.JobEnd, j.ID, trace.Event{})
	wait := j.start - j.Submit
	response := now - j.Submit
	span := now - j.start
	sld := response / math.Max(span, slowdownTau)
	if sld < 1 {
		sld = 1
	}
	if !s.doneHeld {
		s.doneHeld = true
		s.doneJobs = s.col.HoldCounter(metrics.SchedJobsTotal, metrics.Key{Op: metrics.OutcomeCompleted})
		s.doneWait = s.col.HoldCounter(metrics.SchedWaitSecondsTotal, metrics.Key{})
		s.doneResponse = s.col.HoldCounter(metrics.SchedResponseSecondsTotal, metrics.Key{})
		s.doneSld = s.col.HoldCounter(metrics.SchedSlowdownTotal, metrics.Key{})
		s.doneWaitHist = s.col.HoldHistogram(metrics.SchedWaitSeconds, metrics.Key{})
	}
	s.doneJobs.Add(1)
	s.doneWait.Add(wait)
	s.doneResponse.Add(response)
	s.doneSld.Add(sld)
	s.doneWaitHist.Observe(wait)
	s.schedule()
}

// release returns a job's nodes and BB reservation to the free pool.
func (s *scheduler) release(j *jobState) {
	for _, idx := range j.nodes {
		s.nodeOwner[idx] = -1
		if !s.nodeDown[idx] {
			s.freeNodes++
		}
	}
	j.nodes = nil
	at, _ := slices.BinarySearchFunc(s.active, j.idx, bySubmission)
	s.active = slices.Delete(s.active, at, at+1)
	s.heldNodes -= j.Nodes
	if s.cl.BBCapacity > 0 {
		s.freeBB += j.resv
	}
	s.heldBB -= j.resv
}

// nodeFailure is one arrival of the node-failure renewal process: a
// uniformly chosen up node goes down, killing its holding job; the node
// repairs after MTTR. Arrivals finding ≤1 up node are no-ops (one node
// always survives, as in internal/faults).
func (s *scheduler) nodeFailure() {
	if s.failsLeft <= 0 {
		return
	}
	up := s.up[:0]
	for idx, down := range s.nodeDown {
		if !down {
			up = append(up, idx)
		}
	}
	s.up = up
	if len(up) > 1 {
		s.failsLeft--
		s.nodeFailures++
		victim := up[s.rng.Intn(len(up))]
		now := s.eng.Now()
		s.nodeDown[victim] = true
		if s.nodeOwner[victim] == -1 {
			s.freeNodes--
		}
		s.tr.Record(now, trace.NodeFail, "", trace.Node(victim))
		if owner := s.nodeOwner[victim]; owner != -1 {
			s.failJob(s.jobs[owner], victim)
		}
		s.eng.AfterTag(s.plan.Node.MTTR, s.repairFn, uint64(victim))
	}
	if s.failsLeft > 0 && (s.toSubmit > 0 || s.pending > 0) {
		s.eng.AfterTag(s.plan.Node.Arrival.Sample(s.rng), s.failFn, 0)
	}
}

func (s *scheduler) nodeRepair(idx int) {
	s.nodeDown[idx] = false
	if s.nodeOwner[idx] == -1 {
		s.freeNodes++
	}
	s.tr.Record(s.eng.Now(), trace.NodeRepair, "", trace.Node(idx))
	s.schedule()
}

// failJob kills a running job: cancels its in-flight phase, releases its
// resources, and records the terminal failure.
func (s *scheduler) failJob(j *jobState, node int) {
	now := s.eng.Now()
	if j.transfer != nil {
		j.transfer.cancel()
		j.transfer = nil
	}
	if j.inRun {
		s.eng.Cancel(j.phaseEnd)
		j.inRun = false
	}
	j.terminal = Failed
	j.end = now
	s.failed++
	s.pending--
	s.release(j)
	s.tr.Record(now, trace.JobFail, j.ID, trace.Node(node))
	s.col.Add(metrics.SchedJobsTotal, metrics.Key{Op: metrics.OutcomeFailed}, 1)
	s.schedule()
}

// releaseProfile lists the estimated future resource releases of active
// jobs, soonest first, for backfill shadow-time and plan construction.
// Estimated ends in the past (underestimated walltimes) clamp to "just
// after now" so profiles stay causal. The slice is the scheduler's
// buffer: it is valid until the next call.
func (s *scheduler) releaseProfile() []release {
	now := s.eng.Now()
	rel := s.rel[:0]
	for _, j := range s.active {
		t := j.start + j.estSpan
		if t <= now {
			t = math.Nextafter(now, math.Inf(1))
		}
		rel = append(rel, release{t: t, nodes: j.Nodes, bb: j.resv})
	}
	sortReleases(rel)
	s.rel = rel
	return rel
}

type release struct {
	t     float64
	nodes int
	bb    units.Bytes
}
