// Package service is the simulation-as-a-service layer behind cmd/bbsimd:
// a serializable request schema, a pure request evaluator, a
// content-addressed single-flight result cache with a crash-safe journal,
// and an HTTP server with admission control, per-request deadlines, panic
// isolation, and graceful drain.
//
// The package sits outside the simulation packages on purpose — bbvet's
// runner-isolation and no-goroutines-in-kernel rules stay intact because
// every simulation a request triggers is built, run, and torn down
// privately inside Execute, one layer above the kernel, exactly like a
// campaign point under internal/runner. Execute itself is registered as a
// bbvet determinism-taint sink: nothing reachable from it may read the
// wall clock, global rand, or host state, which is the machine-checked
// half of the cache-identity argument (the other half is the seeded
// replay property in internal/invariants).
package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"

	"bbwfsim/internal/core"
	"bbwfsim/internal/exec"
)

// MaxRequestBytes caps the serialized size of a single request (and of a
// campaign request). Oversized payloads are rejected before decoding.
const MaxRequestBytes = 1 << 20

// Schema bounds. They exist so a single request cannot ask the daemon for
// unbounded work: a million-task generated workflow is the largest single
// simulation the scale experiment considers tractable, and campaigns fan
// out through the admission gate point by point.
const (
	MaxGenTasks      = 1_000_000
	MaxGenWidth      = 4096
	MaxPipelines     = 256
	MaxChromosomes   = 64
	MaxSchedJobs     = 100_000
	MaxCampaignSeeds = 1024
	MaxNodes         = 4096
)

// Workflow kinds.
const (
	KindGen     = "gen"     // WfBench-style synthetic DAG (workloads.Scale)
	KindSWarp   = "swarp"   // the paper's SWarp instance
	KindGenomes = "genomes" // the paper's 1000Genomes instance
	// KindPanic is a test-only kind: evaluating it panics inside the
	// worker. The daemon rejects it unless started with its panic hook
	// enabled; it exists so CI can prove panic isolation against a live
	// process without a special build.
	KindPanic = "panic"
)

// RequestError is the typed validation error every malformed request
// resolves to. Handlers map it to HTTP 400; anything else is a 500.
type RequestError struct {
	Field string // JSON path of the offending field, e.g. "workflow.tasks"
	Msg   string
}

func (e *RequestError) Error() string {
	if e.Field == "" {
		return "service: invalid request: " + e.Msg
	}
	return fmt.Sprintf("service: invalid request: %s: %s", e.Field, e.Msg)
}

func badField(field, format string, a ...any) error {
	return &RequestError{Field: field, Msg: fmt.Sprintf(format, a...)}
}

// WorkflowSpec names the workflow to simulate: a generated DAG or one of
// the paper's two calibrated applications.
type WorkflowSpec struct {
	Kind string `json:"kind"`
	// Gen (kind "gen"): topology chain, forkjoin, or montage.
	Topology string `json:"topology,omitempty"`
	Tasks    int    `json:"tasks,omitempty"`
	Width    int    `json:"width,omitempty"`
	// SWarp (kind "swarp").
	Pipelines int `json:"pipelines,omitempty"`
	// Genomes (kind "genomes").
	Chromosomes int `json:"chromosomes,omitempty"`
}

// PlatformSpec selects a platform preset.
type PlatformSpec struct {
	Preset string `json:"preset"`
	Nodes  int    `json:"nodes,omitempty"` // default 1
}

// RunSpec mirrors the single-run knobs of core.RunOptions that are
// meaningful over the wire.
type RunSpec struct {
	StagedFraction           float64 `json:"staged_fraction,omitempty"`
	IntermediatesToBB        bool    `json:"intermediates_bb,omitempty"`
	CoresPerTask             int     `json:"cores_per_task,omitempty"`
	PrePlaceInputs           bool    `json:"preplace,omitempty"`
	EvictAfterLastRead       bool    `json:"evict,omitempty"`
	EnforcePrivateVisibility bool    `json:"enforce_private,omitempty"`
	BBFallback               bool    `json:"bb_fallback,omitempty"`
	NodePolicy               string  `json:"node_policy,omitempty"`  // first-fit (default), least-loaded, round-robin
	OrderPolicy              string  `json:"order_policy,omitempty"` // fifo (default), largest-work, critical-path
}

// CkptSpec mirrors ckpt.Policy.
type CkptSpec struct {
	IntervalSeconds   float64 `json:"interval_s"`
	Tier              string  `json:"tier,omitempty"` // bb (default) or pfs
	Drain             bool    `json:"drain,omitempty"`
	DrainDelaySeconds float64 `json:"drain_delay_s,omitempty"`
	MinSizeMiB        float64 `json:"min_size_mib,omitempty"`
}

// AdaptSpec mirrors adapt.Policy.
type AdaptSpec struct {
	SpillHighWater    float64 `json:"spill_high,omitempty"`
	SpillLowWater     float64 `json:"spill_low,omitempty"`
	ReplicateOnFault  bool    `json:"replicate,omitempty"`
	ReplicationBudget int     `json:"replication_budget,omitempty"`
	DegradedFallback  bool    `json:"degraded_fallback,omitempty"`
}

// FaultSpec injects seeded failures, derived from the request seed.
type FaultSpec struct {
	CrashMeanSeconds    float64 `json:"crash_mean_s,omitempty"`
	CrashBudget         int     `json:"crash_budget,omitempty"`
	NodeFailMeanSeconds float64 `json:"node_fail_mean_s,omitempty"`
	NodeMTTRSeconds     float64 `json:"node_mttr_s,omitempty"`
	NodeFailBudget      int     `json:"node_fail_budget,omitempty"`
	BBRejectProb        float64 `json:"bb_reject_prob,omitempty"`
	// MaxRetries is the per-task retry budget; required > 0 when crashes
	// are injected or the first kill fails the run.
	MaxRetries int `json:"max_retries,omitempty"`
}

// SchedSpec switches the request from a single workflow run to a
// multi-tenant batch campaign (internal/sched) over a synthetic job trace
// generated from the request seed. Workflow is ignored for sched requests.
type SchedSpec struct {
	Policy        string  `json:"policy"`
	Jobs          int     `json:"jobs,omitempty"` // default 1000
	BBCapacityGiB float64 `json:"bb_capacity_gib,omitempty"`
}

// Request is one simulation to evaluate. Identical normalized requests
// are the unit of cache identity: CanonicalHash covers every field except
// TimeoutSeconds, which shapes service behavior, not the simulated world.
type Request struct {
	Workflow WorkflowSpec `json:"workflow"`
	Platform PlatformSpec `json:"platform"`
	Run      RunSpec      `json:"run"`
	Ckpt     *CkptSpec    `json:"ckpt,omitempty"`
	Adapt    *AdaptSpec   `json:"adapt,omitempty"`
	Faults   *FaultSpec   `json:"faults,omitempty"`
	Sched    *SchedSpec   `json:"sched,omitempty"`
	Seed     int64        `json:"seed,omitempty"`
	// TimeoutSeconds is the client's deadline budget; clamped server-side
	// and excluded from the canonical hash.
	TimeoutSeconds float64 `json:"timeout_s,omitempty"`
}

// CampaignRequest sweeps one base request across seeds: point i is Base
// with Seed replaced by Seeds[i]. Every point flows through the shared
// result cache individually, so a campaign warms the cache for later
// single-run requests and vice versa.
type CampaignRequest struct {
	Base  Request `json:"base"`
	Seeds []int64 `json:"seeds"`
}

// ParseRequest decodes and validates one request. Unknown fields, NaN/Inf
// floats, out-of-range sizes, and unknown policy names all resolve to a
// *RequestError; the input is size-capped before decoding.
func ParseRequest(data []byte) (*Request, error) {
	if len(data) > MaxRequestBytes {
		return nil, badField("", "payload %d bytes exceeds cap %d", len(data), MaxRequestBytes)
	}
	var req Request
	if err := decodeStrict(data, &req); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// ParseCampaignRequest decodes and validates one campaign request.
func ParseCampaignRequest(data []byte) (*CampaignRequest, error) {
	if len(data) > MaxRequestBytes {
		return nil, badField("", "payload %d bytes exceeds cap %d", len(data), MaxRequestBytes)
	}
	var req CampaignRequest
	if err := decodeStrict(data, &req); err != nil {
		return nil, err
	}
	if len(req.Seeds) == 0 {
		return nil, badField("seeds", "campaign needs at least one seed")
	}
	if len(req.Seeds) > MaxCampaignSeeds {
		return nil, badField("seeds", "%d seeds exceeds cap %d", len(req.Seeds), MaxCampaignSeeds)
	}
	if err := req.Base.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &RequestError{Msg: err.Error()}
	}
	// A second document after the first is as malformed as a bad field.
	if dec.More() {
		return &RequestError{Msg: "trailing data after request object"}
	}
	return nil
}

// finite rejects NaN and ±Inf, which json.Marshal cannot round-trip and
// which would otherwise flow into virtual-time arithmetic.
func finite(field string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return badField(field, "must be finite, got %v", v)
	}
	return nil
}

func nonNegative(field string, v float64) error {
	if err := finite(field, v); err != nil {
		return err
	}
	if v < 0 {
		return badField(field, "must be non-negative, got %v", v)
	}
	return nil
}

func fraction(field string, v float64) error {
	if err := finite(field, v); err != nil {
		return err
	}
	if v < 0 || v > 1 {
		return badField(field, "must be in [0,1], got %v", v)
	}
	return nil
}

// Validate checks every field against the schema bounds and returns a
// *RequestError naming the first offending field.
func (r *Request) Validate() error {
	if r.Sched == nil {
		if err := r.Workflow.validate(); err != nil {
			return err
		}
	}
	if err := r.Platform.validate(); err != nil {
		return err
	}
	if err := r.Run.validate(); err != nil {
		return err
	}
	if r.Ckpt != nil {
		if err := r.Ckpt.validate(); err != nil {
			return err
		}
	}
	if r.Adapt != nil {
		if err := r.Adapt.validate(); err != nil {
			return err
		}
	}
	if r.Faults != nil {
		if err := r.Faults.validate(); err != nil {
			return err
		}
	}
	if r.Sched != nil {
		if err := r.Sched.validate(); err != nil {
			return err
		}
	}
	if err := nonNegative("timeout_s", r.TimeoutSeconds); err != nil {
		return err
	}
	return nil
}

func (w *WorkflowSpec) validate() error {
	switch w.Kind {
	case KindGen:
		switch w.Topology {
		case "chain", "forkjoin", "montage":
		default:
			return badField("workflow.topology", "unknown topology %q (want chain, forkjoin, or montage)", w.Topology)
		}
		if w.Tasks < 1 || w.Tasks > MaxGenTasks {
			return badField("workflow.tasks", "must be in [1,%d], got %d", MaxGenTasks, w.Tasks)
		}
		if w.Width < 0 || w.Width > MaxGenWidth {
			return badField("workflow.width", "must be in [0,%d], got %d", MaxGenWidth, w.Width)
		}
	case KindSWarp:
		if w.Pipelines < 1 || w.Pipelines > MaxPipelines {
			return badField("workflow.pipelines", "must be in [1,%d], got %d", MaxPipelines, w.Pipelines)
		}
	case KindGenomes:
		if w.Chromosomes < 1 || w.Chromosomes > MaxChromosomes {
			return badField("workflow.chromosomes", "must be in [1,%d], got %d", MaxChromosomes, w.Chromosomes)
		}
	case KindPanic:
		// Structurally valid; the server decides whether the panic hook
		// is armed.
	default:
		return badField("workflow.kind", "unknown kind %q (want gen, swarp, or genomes)", w.Kind)
	}
	return nil
}

func (p *PlatformSpec) validate() error {
	switch p.Preset {
	case "cori-private", "cori-striped", "summit":
	default:
		return badField("platform.preset", "unknown preset %q (want cori-private, cori-striped, or summit)", p.Preset)
	}
	if p.Nodes < 0 || p.Nodes > MaxNodes {
		return badField("platform.nodes", "must be in [0,%d], got %d", MaxNodes, p.Nodes)
	}
	return nil
}

func (r *RunSpec) validate() error {
	if err := fraction("run.staged_fraction", r.StagedFraction); err != nil {
		return err
	}
	if r.CoresPerTask < 0 {
		return badField("run.cores_per_task", "must be non-negative, got %d", r.CoresPerTask)
	}
	if _, err := exec.ParseNodePolicy(r.NodePolicy); err != nil {
		return badField("run.node_policy", "unknown policy %q", r.NodePolicy)
	}
	if _, err := exec.ParseOrderPolicy(r.OrderPolicy); err != nil {
		return badField("run.order_policy", "unknown policy %q", r.OrderPolicy)
	}
	return nil
}

func (c *CkptSpec) validate() error {
	if err := nonNegative("ckpt.interval_s", c.IntervalSeconds); err != nil {
		return err
	}
	if c.IntervalSeconds <= 0 {
		return badField("ckpt.interval_s", "must be positive when a ckpt block is present")
	}
	switch c.Tier {
	case "", "bb", "pfs":
	default:
		return badField("ckpt.tier", "unknown tier %q (want bb or pfs)", c.Tier)
	}
	if err := nonNegative("ckpt.drain_delay_s", c.DrainDelaySeconds); err != nil {
		return err
	}
	return nonNegative("ckpt.min_size_mib", c.MinSizeMiB)
}

func (a *AdaptSpec) validate() error {
	if err := fraction("adapt.spill_high", a.SpillHighWater); err != nil {
		return err
	}
	if err := fraction("adapt.spill_low", a.SpillLowWater); err != nil {
		return err
	}
	if a.SpillLowWater > 0 && a.SpillLowWater >= a.SpillHighWater {
		return badField("adapt.spill_low", "must be below spill_high")
	}
	if a.ReplicationBudget < 0 {
		return badField("adapt.replication_budget", "must be non-negative, got %d", a.ReplicationBudget)
	}
	return nil
}

func (f *FaultSpec) validate() error {
	if err := nonNegative("faults.crash_mean_s", f.CrashMeanSeconds); err != nil {
		return err
	}
	if err := nonNegative("faults.node_fail_mean_s", f.NodeFailMeanSeconds); err != nil {
		return err
	}
	if err := nonNegative("faults.node_mttr_s", f.NodeMTTRSeconds); err != nil {
		return err
	}
	if f.NodeFailMeanSeconds > 0 && f.NodeMTTRSeconds <= 0 {
		return badField("faults.node_mttr_s", "must be positive when node failures are injected")
	}
	if err := fraction("faults.bb_reject_prob", f.BBRejectProb); err != nil {
		return err
	}
	if f.CrashBudget < 0 || f.NodeFailBudget < 0 || f.MaxRetries < 0 {
		return badField("faults", "budgets and max_retries must be non-negative")
	}
	if f.CrashMeanSeconds > 0 && f.MaxRetries == 0 {
		return badField("faults.max_retries", "must be positive when crashes are injected (the first kill would fail the run)")
	}
	return nil
}

func (s *SchedSpec) validate() error {
	switch s.Policy {
	case "fcfs", "easy", "plan", "maxbb", "maxparallel", "directio":
	default:
		return badField("sched.policy", "unknown policy %q", s.Policy)
	}
	if s.Jobs < 0 || s.Jobs > MaxSchedJobs {
		return badField("sched.jobs", "must be in [0,%d], got %d", MaxSchedJobs, s.Jobs)
	}
	return nonNegative("sched.bb_capacity_gib", s.BBCapacityGiB)
}

// Normalized returns the request with defaults applied and the timeout
// dropped — the form CanonicalHash covers, so "nodes omitted" and
// "nodes: 1" are the same cache entry.
func (r *Request) Normalized() Request {
	n := *r
	n.TimeoutSeconds = 0
	if n.Platform.Nodes == 0 {
		n.Platform.Nodes = 1
	}
	if n.Sched != nil {
		sched := *n.Sched
		if sched.Jobs == 0 {
			sched.Jobs = 1000
		}
		n.Sched = &sched
		// Sched campaigns ignore the workflow block entirely.
		n.Workflow = WorkflowSpec{}
	}
	if n.Run.NodePolicy == "first-fit" {
		n.Run.NodePolicy = ""
	}
	if n.Run.OrderPolicy == "fifo" {
		n.Run.OrderPolicy = ""
	}
	if n.Ckpt != nil {
		ckpt := *n.Ckpt
		if ckpt.Tier == "" {
			ckpt.Tier = "bb"
		}
		n.Ckpt = &ckpt
	}
	return n
}

// CanonicalHash is the content address of the request: the SHA-256 of the
// model identity (core.ModelVersion and core.ResultDocSchema) followed by
// the normalized request's canonical JSON, hex-encoded. Two requests with
// the same hash run the same simulation on the same model and produce
// byte-identical result documents — the property internal/invariants
// replays 100 seeds to pin.
func (r *Request) CanonicalHash() (string, error) {
	n := r.Normalized()
	b, err := json.Marshal(&n)
	if err != nil {
		return "", err
	}
	id := fmt.Appendf(make([]byte, 0, 32+len(b)), "model %d schema %d\n", core.ModelVersion, core.ResultDocSchema)
	return fmt.Sprintf("%x", sha256.Sum256(append(id, b...))), nil
}
