// Package faults injects deterministic, seeded failures into a simulated
// workflow execution: task crashes, whole-node failures with repair, burst-
// buffer allocation rejections, and transient bandwidth degradation of the
// burst buffers or the PFS (brown-outs).
//
// Failure processes are renewal processes in *virtual* time: inter-arrival
// times are sampled from exponential or Weibull distributions, each process
// drawing from its own rand stream seeded from Config.Seed. Nothing here
// touches the wall clock or global randomness, so a replay with the same
// seed — and the same workload — reproduces every failure at the same
// virtual instant, bit for bit.
//
// An Injector is single-use: its streams advance as the run progresses, so
// build a fresh one (same Config is fine) for every exec.Run.
package faults

import (
	"fmt"
	"math"
	"math/rand"

	"bbwfsim/internal/exec"
	"bbwfsim/internal/flow"
	"bbwfsim/internal/sim"
	"bbwfsim/internal/storage"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/workflow"
)

// DistKind selects an inter-arrival distribution.
type DistKind string

const (
	// Exponential inter-arrivals: a Poisson failure process (constant
	// hazard rate), the classic memoryless model.
	Exponential DistKind = "exponential"
	// Weibull inter-arrivals: shape < 1 models infant mortality (bursty
	// failures), shape > 1 wear-out; shape = 1 degenerates to exponential.
	Weibull DistKind = "weibull"
)

// Dist is an inter-arrival distribution over virtual seconds.
type Dist struct {
	Kind DistKind
	// Scale is the exponential mean, or the Weibull scale parameter λ.
	Scale float64
	// Shape is the Weibull shape parameter k; ignored for Exponential.
	Shape float64
}

// Exp returns an exponential distribution with the given mean.
func Exp(mean float64) Dist { return Dist{Kind: Exponential, Scale: mean} }

func (d Dist) validate(what string) error {
	switch d.Kind {
	case Exponential:
		if d.Scale <= 0 {
			return fmt.Errorf("faults: %s: exponential mean must be positive, got %g", what, d.Scale)
		}
	case Weibull:
		if d.Scale <= 0 || d.Shape <= 0 {
			return fmt.Errorf("faults: %s: weibull scale and shape must be positive, got %g/%g",
				what, d.Scale, d.Shape)
		}
	default:
		return fmt.Errorf("faults: %s: unknown distribution %q", what, d.Kind)
	}
	return nil
}

// Validate reports whether the distribution is well-formed; what names it
// in the error. Exported for layers that reuse Dist outside an Injector
// (the batch scheduler's fault plan).
func (d Dist) Validate(what string) error { return d.validate(what) }

// Sample draws one inter-arrival time from the distribution using the
// caller's seeded stream. Exported for layers that reuse Dist outside an
// Injector (the batch scheduler's fault plan); the Injector's own
// processes keep their private streams.
func (d Dist) Sample(rng *rand.Rand) float64 { return d.sample(rng) }

// sample draws one inter-arrival time by inversion. 1-U keeps the argument
// of the logarithm in (0, 1]: rand.Float64 may return exactly 0.
func (d Dist) sample(rng *rand.Rand) float64 {
	u := 1 - float64(rng.Float64())
	switch d.Kind {
	case Weibull:
		return d.Scale * math.Pow(-math.Log(u), 1/d.Shape)
	default:
		return -d.Scale * math.Log(u)
	}
}

// CrashProcess kills a uniformly chosen running task at each arrival — in
// whatever phase it happens to be (read, compute, write, staging). Arrivals
// with nothing running are no-ops.
type CrashProcess struct {
	Arrival Dist
	// Budget bounds the campaign: after this many injected crashes the
	// process stops. 0 means unlimited — note that an unlimited process
	// whose inter-arrival mean is shorter than the longest task can
	// prevent the workflow from ever finishing (the last task is killed
	// faster than it can complete).
	Budget int
}

// NodeProcess takes a uniformly chosen up node down at each arrival,
// killing its resident tasks and destroying the burst-buffer replicas it
// hosted; the node repairs after MTTR virtual seconds. One node always
// survives: arrivals finding a single up node are no-ops.
type NodeProcess struct {
	Arrival Dist
	// MTTR is the virtual-time outage duration; must be positive or the
	// cluster could drain to nothing forever.
	MTTR float64
	// Budget bounds the campaign (see CrashProcess.Budget); 0 is unlimited.
	Budget int
}

// RejectPolicy makes each burst-buffer allocation fail independently with
// probability Prob (DataWarp pool exhaustion / allocation-request errors).
// Rejected allocations fall back to the PFS.
type RejectPolicy struct {
	Prob float64
}

// DegradeProcess transiently cuts a storage service's bandwidth: at each
// arrival one target service runs at Factor of its nominal bandwidth for
// Duration virtual seconds. Windows never overlap — the next arrival is
// sampled after the previous window closes.
type DegradeProcess struct {
	Arrival Dist
	// Duration is the window length in virtual seconds; must be positive.
	Duration float64
	// Factor in (0, 1] is the remaining fraction of nominal bandwidth.
	Factor float64
}

func (p *DegradeProcess) validate(what string) error {
	if err := p.Arrival.validate(what); err != nil {
		return err
	}
	if p.Duration <= 0 {
		return fmt.Errorf("faults: %s: duration must be positive, got %g", what, p.Duration)
	}
	if p.Factor <= 0 || p.Factor > 1 {
		return fmt.Errorf("faults: %s: factor must be in (0,1], got %g", what, p.Factor)
	}
	return nil
}

// Config enables failure processes; nil members are disabled.
type Config struct {
	// Seed derives every process's rand stream.
	Seed int64
	// TaskCrash kills running tasks.
	TaskCrash *CrashProcess
	// NodeFailure takes whole nodes down (and back up after MTTR).
	NodeFailure *NodeProcess
	// BBReject rejects burst-buffer allocations.
	BBReject *RejectPolicy
	// BBDegrade transiently degrades burst-buffer bandwidth.
	BBDegrade *DegradeProcess
	// PFSDegrade transiently degrades PFS bandwidth (brown-outs).
	PFSDegrade *DegradeProcess
}

// Injector implements exec.FaultModel for one run.
type Injector struct {
	cfg      Config
	ctrl     exec.FaultController
	eng      *sim.Engine
	attached bool

	// One stream per process, nil while the process is disabled.
	crashRng  *rand.Rand
	nodeRng   *rand.Rand
	rejectRng *rand.Rand
	bbRng     *rand.Rand
	pfsRng    *rand.Rand

	crashes int // crashes injected so far
	outages int // node failures injected so far
}

// Stream offsets keep the processes' rand streams disjoint for a given
// seed (the testbed uses the same large-prime spacing for replications).
const streamSpacing = 1_000_003

// stream returns process k's rand stream when it is enabled, else nil.
// Each stream is seeded on its own, so leaving a disabled one unseeded
// changes no enabled process's draws.
func stream(seed, k int64, enabled bool) *rand.Rand {
	if !enabled {
		return nil
	}
	return rand.New(rand.NewSource(seed + k*streamSpacing))
}

// New validates the configuration and builds a single-use injector.
func New(cfg Config) (*Injector, error) {
	if cfg.TaskCrash != nil {
		if err := cfg.TaskCrash.Arrival.validate("task crash"); err != nil {
			return nil, err
		}
	}
	if cfg.NodeFailure != nil {
		if err := cfg.NodeFailure.Arrival.validate("node failure"); err != nil {
			return nil, err
		}
		if cfg.NodeFailure.MTTR <= 0 {
			return nil, fmt.Errorf("faults: node failure MTTR must be positive, got %g", cfg.NodeFailure.MTTR)
		}
	}
	if cfg.BBReject != nil {
		if cfg.BBReject.Prob < 0 || cfg.BBReject.Prob > 1 {
			return nil, fmt.Errorf("faults: BB rejection probability must be in [0,1], got %g", cfg.BBReject.Prob)
		}
	}
	if cfg.BBDegrade != nil {
		if err := cfg.BBDegrade.validate("BB degradation"); err != nil {
			return nil, err
		}
	}
	if cfg.PFSDegrade != nil {
		if err := cfg.PFSDegrade.validate("PFS degradation"); err != nil {
			return nil, err
		}
	}
	return &Injector{
		cfg:       cfg,
		crashRng:  stream(cfg.Seed, 1, cfg.TaskCrash != nil),
		nodeRng:   stream(cfg.Seed, 2, cfg.NodeFailure != nil),
		rejectRng: stream(cfg.Seed, 3, cfg.BBReject != nil),
		bbRng:     stream(cfg.Seed, 4, cfg.BBDegrade != nil),
		pfsRng:    stream(cfg.Seed, 5, cfg.PFSDegrade != nil),
	}, nil
}

// Attach implements exec.FaultModel: it arms every enabled process on the
// run's virtual clock. An Injector attaches exactly once.
func (in *Injector) Attach(ctrl exec.FaultController) {
	if in.attached {
		panic("faults: Injector is single-use; build a fresh one per run")
	}
	in.attached = true
	in.ctrl = ctrl
	in.eng = ctrl.System().Platform().Engine()
	if p := in.cfg.TaskCrash; p != nil {
		in.eng.After(p.Arrival.sample(in.crashRng), in.crashArrival)
	}
	if p := in.cfg.NodeFailure; p != nil {
		in.eng.After(p.Arrival.sample(in.nodeRng), in.nodeArrival)
	}
	if p := in.cfg.BBDegrade; p != nil {
		in.eng.After(p.Arrival.sample(in.bbRng), func() { in.degradeArrival(p, in.bbRng, true) })
	}
	if p := in.cfg.PFSDegrade; p != nil {
		in.eng.After(p.Arrival.sample(in.pfsRng), func() { in.degradeArrival(p, in.pfsRng, false) })
	}
}

// RejectBBAlloc implements exec.FaultModel.
func (in *Injector) RejectBBAlloc(*workflow.Task, *workflow.File) bool {
	return in.cfg.BBReject != nil && in.rejectRng.Float64() < in.cfg.BBReject.Prob
}

func (in *Injector) crashArrival() {
	p := in.cfg.TaskCrash
	if running := in.ctrl.Running(); len(running) > 0 {
		victim := running[in.crashRng.Intn(len(running))]
		in.ctrl.KillTask(victim, "injected crash")
		in.crashes++
	}
	if p.Budget > 0 && in.crashes >= p.Budget {
		return // campaign exhausted; the process drains
	}
	in.eng.After(p.Arrival.sample(in.crashRng), in.crashArrival)
}

func (in *Injector) nodeArrival() {
	p := in.cfg.NodeFailure
	if up := in.ctrl.UpNodes(); len(up) > 1 {
		victim := up[in.nodeRng.Intn(len(up))]
		in.ctrl.FailNode(victim, "injected failure")
		in.eng.After(p.MTTR, func() { in.ctrl.RepairNode(victim) })
		in.outages++
	}
	if p.Budget > 0 && in.outages >= p.Budget {
		return
	}
	in.eng.After(p.Arrival.sample(in.nodeRng), in.nodeArrival)
}

// degradeArrival opens one degradation window on a target service (a
// random burst buffer, or the PFS) and schedules the next arrival after
// the window closes.
func (in *Injector) degradeArrival(p *DegradeProcess, rng *rand.Rand, bb bool) {
	sys := in.ctrl.System()
	var svc storage.Service
	if bb {
		bbs := sys.AllBBs()
		svc = bbs[rng.Intn(len(bbs))]
	} else {
		svc = sys.PFS()
	}
	net := sys.Platform().Network()
	resources := servicePath(svc)
	in.ctrl.Note(trace.DegradeStart, trace.Degrade(svc.Name(), p.Factor, p.Duration))
	in.ctrl.SetDegraded(svc, true)
	saved := make([]float64, len(resources))
	for i, r := range resources {
		saved[i] = r.Capacity()
		net.SetCapacity(r, saved[i]*p.Factor)
	}
	in.eng.After(p.Duration, func() {
		for i, r := range resources {
			net.SetCapacity(r, saved[i])
		}
		in.ctrl.SetDegraded(svc, false)
		in.ctrl.Note(trace.DegradeEnd, trace.Named(svc.Name()))
		in.eng.After(p.Arrival.sample(rng), func() { in.degradeArrival(p, rng, bb) })
	})
}

// servicePath returns the service-side flow resources of svc (disk plus
// any dedicated network ingest), deduplicated and node-independent.
func servicePath(svc storage.Service) []*flow.Resource {
	var resources []*flow.Resource
	for _, r := range append(svc.ReadPath(nil), svc.WritePath(nil)...) {
		dup := false
		for _, seen := range resources {
			if seen == r {
				dup = true
				break
			}
		}
		if !dup {
			resources = append(resources, r)
		}
	}
	return resources
}
