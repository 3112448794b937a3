// Package metrics is the simulator's deterministic observability layer:
// counters, gauges, and fixed-bucket histograms that describe one simulated
// execution — bytes moved per storage tier, virtual time spent per task
// phase, burst-buffer occupancy high-water marks, flow-solver work, fault
// and retry tallies.
//
// Everything here is driven exclusively by *virtual* time and deterministic
// event ordering: emission sites pass values derived from sim.Engine.Now,
// never from the wall clock (bbvet's metrics-virtual-time rule enforces
// this), and Snapshot renders every family sorted by family name and label
// key. Two runs of the same configuration therefore produce byte-identical
// snapshots, and snapshots themselves become comparable artifacts: CI diffs
// them, the invariant harness (internal/invariants) cross-checks them
// against traces, and campaign runners merge them in submission-index order
// so `-j N` output equals serial output bit for bit.
package metrics

import "strings"

// Metric family names. Counters end in _total; gauges and histograms do
// not. The constants keep emission sites, tests, and docs in sync.
const (
	// SimEventsTotal counts discrete events the kernel executed.
	SimEventsTotal = "sim_events_total"
	// SimQueuePeakEvents is the event queue's high-water mark (gauge).
	SimQueuePeakEvents = "sim_queue_peak_events"

	// FlowRecomputesTotal counts max-min fair rate recomputes: at most one
	// per simulated instant at which flows or capacities changed.
	FlowRecomputesTotal = "flow_recomputes_total"
	// FlowFreezeRoundsTotal counts progressive-filling rounds across all
	// recomputes (the solver's inner-loop work metric).
	FlowFreezeRoundsTotal = "flow_freeze_rounds_total"
	// FlowFlowsTotal counts flows started on the network.
	FlowFlowsTotal = "flow_flows_total"

	// StorageBytesTotal counts bytes moved, labeled by tier and op.
	StorageBytesTotal = "storage_bytes_total"
	// StorageOpsTotal counts storage operations, labeled by tier and op.
	StorageOpsTotal = "storage_ops_total"
	// StorageOpSecondsTotal sums per-operation virtual durations (latency
	// included), labeled by tier and op.
	StorageOpSecondsTotal = "storage_op_seconds_total"
	// StorageOpSeconds is the fixed-bucket histogram of per-operation
	// virtual durations, labeled by tier and op.
	StorageOpSeconds = "storage_op_seconds"
	// StoragePeakBytes is the occupancy high-water mark of one storage
	// service (gauge, labeled by service name).
	StoragePeakBytes = "storage_peak_bytes"

	// TaskPhaseSecondsTotal sums virtual time per task category and phase
	// (read, compute, write, stage-in, stage-out), committed once per task
	// completion.
	TaskPhaseSecondsTotal = "task_phase_seconds_total"
	// TaskWaitSecondsTotal sums ready-to-start waiting time per category.
	TaskWaitSecondsTotal = "task_wait_seconds_total"
	// TaskAbortedSecondsTotal sums the partial virtual time of attempts a
	// fault aborted mid-flight, per category (zero on fault-free runs).
	TaskAbortedSecondsTotal = "task_aborted_seconds_total"
	// TasksCompletedTotal counts task completions per category; lineage
	// re-execution can push it above the task count.
	TasksCompletedTotal = "tasks_completed_total"

	// Fault tallies (PR 2), folded in from the trace.
	FaultTaskFailuresTotal   = "fault_task_failures_total"
	FaultRetriesTotal        = "fault_retries_total"
	FaultNodeFailuresTotal   = "fault_node_failures_total"
	FaultBBRejectionsTotal   = "fault_bb_rejections_total"
	FaultFallbacksTotal      = "fault_fallbacks_total"
	FaultDegradeWindowsTotal = "fault_degrade_windows_total"

	// Task-level checkpoint/restart families (internal/ckpt policy).
	// CkptBytesTotal counts checkpoint bytes moved, labeled by tier and op
	// (write = commits and drain copies, read = restores and drain
	// sources). A strict subset of StorageBytesTotal: checkpoint I/O flows
	// through the same storage manager as workflow I/O.
	CkptBytesTotal = "ckpt_bytes_total"
	// CkptOverheadSecondsTotal sums the virtual time tasks spent blocked on
	// checkpoint commits (op write) and restore reads (op read), by tier.
	CkptOverheadSecondsTotal = "ckpt_overhead_seconds_total"
	// CkptRecoveredSecondsTotal sums the compute seconds restarts recovered
	// from checkpoints instead of re-executing, by the tier restored from.
	CkptRecoveredSecondsTotal = "ckpt_recovered_seconds_total"
	// ComputeExecutedSecondsTotal sums the compute seconds actually
	// executed per task category — completed segments plus the in-flight
	// portion of aborted ones, minus checkpoint-recovered time. On a
	// fault-free run it equals the compute phase total; under faults the
	// excess over the fault-free value is the re-executed compute.
	ComputeExecutedSecondsTotal = "compute_executed_seconds_total"
	// Checkpoint event tallies, folded in from the trace like the fault
	// families (always emitted, zero without a checkpoint policy).
	CkptCommitsTotal  = "ckpt_commits_total"
	CkptDrainsTotal   = "ckpt_drains_total"
	CkptLossesTotal   = "ckpt_losses_total"
	CkptRestartsTotal = "ckpt_restarts_total"

	// AdaptBytesTotal counts bytes the adaptation layer moved, labeled by
	// tier and op (OpSpill for BB→PFS pressure spills, OpReplicate for
	// fault-aware replication copies). The underlying flows also appear in
	// StorageBytesTotal under the regular read/write ops.
	AdaptBytesTotal = "adapt_bytes_total"
	// Adaptation event tallies, folded in from the trace like the fault and
	// checkpoint families (always emitted, zero without an adapt policy).
	AdaptSpillsTotal       = "adapt_spills_total"
	AdaptReplicationsTotal = "adapt_replications_total"
	AdaptFallbacksTotal    = "adapt_fallbacks_total"

	// Batch-scheduler families (internal/sched). SchedJobsTotal counts
	// jobs by terminal outcome (Op label: submitted, completed, failed,
	// rejected).
	SchedJobsTotal = "sched_jobs_total"
	// SchedWaitSecondsTotal sums submit→start waiting time over completed
	// jobs, committed in completion order.
	SchedWaitSecondsTotal = "sched_wait_seconds_total"
	// SchedResponseSecondsTotal sums submit→end response time over
	// completed jobs.
	SchedResponseSecondsTotal = "sched_response_seconds_total"
	// SchedSlowdownTotal sums bounded slowdown (threshold 10 s) over
	// completed jobs.
	SchedSlowdownTotal = "sched_bounded_slowdown_total"
	// SchedWaitSeconds is the fixed-bucket histogram of per-job waits.
	SchedWaitSeconds = "sched_wait_seconds"
	// SchedNodesPeak and SchedBBPeakBytes are the cluster's concurrent
	// node-allocation and BB-reservation high-water marks (gauges).
	SchedNodesPeak   = "sched_nodes_peak"
	SchedBBPeakBytes = "sched_bb_peak_bytes"

	// MakespanSeconds is the run's makespan (gauge; campaign merges keep
	// the maximum).
	MakespanSeconds = "makespan_seconds"

	// Simulation-service families (cmd/bbsimd). Unlike every family above
	// these measure the serving process, not the simulated world: bbsimd
	// keeps live atomics and renders them through a throwaway Collector on
	// each /metrics scrape. ServiceRequestsTotal counts accepted requests
	// by endpoint (Op label: run, campaign).
	ServiceRequestsTotal = "service_requests_total"
	// ServiceCacheHitsTotal counts requests answered from the
	// content-addressed result cache.
	ServiceCacheHitsTotal = "service_cache_hits_total"
	// ServiceShedsTotal counts requests rejected 429 by admission control.
	ServiceShedsTotal = "service_sheds_total"
	// ServicePanicsTotal counts worker panics converted to structured 500s.
	ServicePanicsTotal = "service_panics_total"
	// ServiceDeadlineKillsTotal counts requests cancelled at their
	// deadline (504).
	ServiceDeadlineKillsTotal = "service_deadline_kills_total"
	// ServiceJournalDiscardsTotal counts cache journals discarded at open
	// because they were written under another core.ModelVersion.
	ServiceJournalDiscardsTotal = "service_journal_discards_total"
	// ServiceQueueDepth and ServiceInFlight are point-in-time gauges of
	// the admission queue and executing-request counts.
	ServiceQueueDepth = "service_queue_depth"
	ServiceInFlight   = "service_in_flight"
)

// Outcome label values (Key.Op) for SchedJobsTotal.
const (
	OutcomeSubmitted = "submitted"
	OutcomeCompleted = "completed"
	OutcomeFailed    = "failed"
	OutcomeRejected  = "rejected"
)

// Phase label values for TaskPhaseSecondsTotal.
const (
	PhaseRead     = "read"
	PhaseCompute  = "compute"
	PhaseWrite    = "write"
	PhaseStageIn  = "stage-in"
	PhaseStageOut = "stage-out"
)

// Op label values for the storage families.
const (
	OpRead  = "read"
	OpWrite = "write"
)

// Op label values for AdaptBytesTotal.
const (
	OpSpill     = "spill"
	OpReplicate = "replicate"
)

// DefaultBuckets are the fixed upper bounds (seconds) of every duration
// histogram; an implicit +Inf bucket follows the last bound. The set is
// fixed — not per-run adaptive — so histograms from different runs merge
// bucket-by-bucket.
var DefaultBuckets = []float64{0.001, 0.01, 0.1, 1, 10, 100, 1000}

// Key is the label set of one series. Unused labels stay empty and are
// omitted from rendered output; the populated fields depend on the family
// (e.g. Tier+Op for storage traffic, Task+Phase for the phase profiler).
type Key struct {
	Tier    string `json:"tier,omitempty"`    // storage tier: pfs, shared-bb, node-bb
	Op      string `json:"op,omitempty"`      // read or write
	Phase   string `json:"phase,omitempty"`   // task phase
	Task    string `json:"task,omitempty"`    // task category name
	Service string `json:"service,omitempty"` // individual service name, e.g. "bb@node003"
}

// compare orders keys deterministically (field by field, declaration
// order).
func (k Key) compare(o Key) int {
	if c := strings.Compare(k.Tier, o.Tier); c != 0 {
		return c
	}
	if c := strings.Compare(k.Op, o.Op); c != 0 {
		return c
	}
	if c := strings.Compare(k.Phase, o.Phase); c != 0 {
		return c
	}
	if c := strings.Compare(k.Task, o.Task); c != 0 {
		return c
	}
	return strings.Compare(k.Service, o.Service)
}

// series identifies one time series: a family plus its label key.
type series struct {
	family string
	key    Key
}

// compareSeries orders series by family, then key. Series are unique, so
// no two compare equal and any sort of them is stable.
func compareSeries(a, b series) int {
	if c := strings.Compare(a.family, b.family); c != 0 {
		return c
	}
	return a.key.compare(b.key)
}

// histogram is the mutable accumulator behind one histogram series.
type histogram struct {
	buckets []uint64 // len(DefaultBuckets)+1; last is +Inf
	count   uint64
	sum     float64
}

func (h *histogram) observe(v float64) {
	i := 0
	for i < len(DefaultBuckets) && v > DefaultBuckets[i] {
		i++
	}
	h.buckets[i]++
	h.count++
	h.sum += v
}

// Collector accumulates one run's metrics. All methods are nil-safe no-ops
// on a nil receiver, so instrumented layers need no "is observability on"
// branches. A Collector is single-threaded, like everything inside a run.
type Collector struct {
	platform string
	workflow string
	counters map[series]int // index into counts
	counts   []float64      // counter values; indices are stable, so held handles stay valid
	gauges   map[series]float64
	hists    map[series]*histogram
	// first backs counts up to its length, sparing a typical run's
	// collector an allocation of its own.
	first [128]float64
}

// New returns an empty collector for one run on the named platform and
// workflow.
func New(platform, workflow string) *Collector {
	c := &Collector{
		platform: platform,
		workflow: workflow,
		counters: map[series]int{},
		gauges:   map[series]float64{},
		hists:    map[series]*histogram{},
	}
	c.counts = c.first[:0]
	return c
}

// Add increments the counter series by v.
func (c *Collector) Add(family string, k Key, v float64) {
	if c == nil {
		return
	}
	c.counts[c.counter(series{family, k})] += v
}

// counter returns the index of the counter series, creating it at zero.
func (c *Collector) counter(s series) int {
	i, ok := c.counters[s]
	if !ok {
		i = len(c.counts)
		c.counters[s] = i
		c.counts = append(c.counts, 0)
	}
	return i
}

// HeldCounter is a handle on one counter series: Add through it skips the
// series lookup (hashing the family and every label), for emission sites
// that hit the same few series once per operation. The zero HeldCounter,
// and a nil collector's, are no-ops.
type HeldCounter struct {
	c *Collector
	i int
}

// HoldCounter returns a handle on the counter series, creating it at zero:
// hold a series only once it is about to be incremented, so untouched
// series still never appear in the snapshot.
func (c *Collector) HoldCounter(family string, k Key) HeldCounter {
	if c == nil {
		return HeldCounter{}
	}
	return HeldCounter{c: c, i: c.counter(series{family, k})}
}

// Add increments the held series by v, as Collector.Add would.
func (h HeldCounter) Add(v float64) {
	if h.c != nil {
		h.c.counts[h.i] += v
	}
}

// HeldHistogram is a handle on one histogram series (fixed
// DefaultBuckets): the only way to observe into one.
type HeldHistogram struct {
	h *histogram
}

// HoldHistogram returns a handle on the histogram series, creating it
// empty; the same caveat as HoldCounter applies.
func (c *Collector) HoldHistogram(family string, k Key) HeldHistogram {
	if c == nil {
		return HeldHistogram{}
	}
	return HeldHistogram{h: c.histogram(series{family, k})}
}

// Observe records v into the held series.
func (h HeldHistogram) Observe(v float64) {
	if h.h != nil {
		h.h.observe(v)
	}
}

// GaugeMax raises the gauge series to v if v exceeds its current value
// (high-water-mark semantics; absent series start at v).
func (c *Collector) GaugeMax(family string, k Key, v float64) {
	if c == nil {
		return
	}
	s := series{family, k}
	if cur, ok := c.gauges[s]; !ok || v > cur {
		c.gauges[s] = v
	}
}

// histogram returns the accumulator of the histogram series, creating it
// empty.
func (c *Collector) histogram(s series) *histogram {
	h := c.hists[s]
	if h == nil {
		h = &histogram{buckets: make([]uint64, len(DefaultBuckets)+1)}
		c.hists[s] = h
	}
	return h
}
