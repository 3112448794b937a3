// Package testbed is the synthetic ground truth of this reproduction: a
// high-fidelity simulator of the Cori and Summit platforms that stands in
// for the real machines the paper measured (see DESIGN.md, substitution
// table).
//
// A testbed run is the lightweight simulator itself — core.Simulator.Run —
// with two machine-model hooks installed: a storage.OpModel and an
// exec.ComputeModel. Together they add the behaviors the paper observed
// and the lightweight model deliberately ignores:
//
//   - per-operation latency and metadata cost, mode-dependent (the striped
//     DataWarp mode is far more expensive per file operation than the
//     private mode on the 1:N small-file pattern);
//   - a collapsed per-stream rate on striped small-file access;
//   - concurrency-dependent metadata penalties (contention beyond fair
//     bandwidth sharing);
//   - the reproducible-but-unexplained stage-in anomaly at 75% staged
//     fraction in striped mode (paper Fig. 4);
//   - imperfect compute scaling (per-category Amdahl fraction plus a
//     per-core synchronization overhead, so Combine stops benefiting from
//     cores while Resample plateaus, paper Fig. 6);
//   - seeded multiplicative measurement noise, largest for the striped
//     mode and smallest on-node (paper Fig. 8);
//   - a PFS that is faster than its Table-I calibration value (real Lustre
//     outperforms the conservative calibrated figure, one of the error
//     sources the paper discusses).
//
// Every run is deterministic in (profile, run options, seed, repetition).
package testbed

import (
	"fmt"
	"math"
	"math/rand"

	"bbwfsim/internal/calib"
	"bbwfsim/internal/core"
	"bbwfsim/internal/placement"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/stats"
	"bbwfsim/internal/storage"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

// Profile parameterizes one synthetic machine.
type Profile struct {
	Name     string
	Platform platform.Config

	// Per-operation latencies (seconds) and metadata penalties (seconds of
	// extra latency per operation already in flight on the service).
	BBReadLatency  float64
	BBWriteLatency float64
	// StageWriteLatency is the per-file cost of stage-in writes into the
	// BB. Staging streams data efficiently (DataWarp's stage API), so it
	// escapes both the task-I/O write latency and the striped small-file
	// collapse — but not the 75% anomaly.
	StageWriteLatency float64
	BBMetaPenalty     float64
	PFSReadLatency    float64
	PFSWriteLatency   float64
	PFSMetaPenalty    float64

	// SmallFileStreamCap, when positive, replaces the platform stream cap
	// for burst-buffer access to files below SmallFileThreshold — the
	// striped mode's metadata-bound collapse on small files.
	SmallFileStreamCap units.Bandwidth
	SmallFileThreshold units.Bytes

	// Striped stage-in anomaly (paper Fig. 4): writes to the BB during a
	// run whose staged fraction falls in [AnomalyLow, AnomalyHigh) are
	// stretched by AnomalyFactor.
	AnomalyLow    float64
	AnomalyHigh   float64
	AnomalyFactor float64

	// IONoiseCV and ComputeNoiseCV are the coefficients of variation of
	// the multiplicative lognormal noise applied to transfers and compute
	// phases.
	IONoiseCV      float64
	ComputeNoiseCV float64
	// LoadNoiseCV draws one background-load factor per repetition and
	// applies it to every I/O operation of that run: per-op noise averages
	// out over many operations, but competing load on a shared machine
	// moves the whole run — the dominant variability the paper measures
	// (Fig. 8, ~15% for the striped mode).
	LoadNoiseCV float64

	// Compute scaling truth: per task category, the Amdahl fraction and a
	// per-core overhead in seconds (synchronization/locking, the reason
	// Combine gains nothing from more cores).
	Alpha        map[string]float64
	GammaPerCore map[string]float64
}

// Result aggregates the repetitions of one scenario.
type Result struct {
	Makespans []float64
	// TaskMeans maps a task category to its per-repetition mean execution
	// time.
	TaskMeans map[string][]float64
	// BBReadBW / BBWriteBW are per-repetition achieved burst-buffer
	// bandwidths.
	BBReadBW  []float64
	BBWriteBW []float64
	// Phases holds the final repetition's task phases in first-touch
	// order when the run options ask for them with trace.Retain; nil
	// otherwise.
	Phases []calib.TaskPhases
}

// MeanMakespan returns the mean makespan across repetitions.
func (r *Result) MeanMakespan() float64 { return stats.Mean(r.Makespans) }

// TaskMean returns the across-repetition mean execution time of a task
// category.
func (r *Result) TaskMean(name string) float64 { return stats.Mean(r.TaskMeans[name]) }

// Runner executes scenarios against a profile.
type Runner struct {
	Profile Profile
	Seed    int64
}

// NewRunner returns a runner with the given base seed.
func NewRunner(p Profile, seed int64) *Runner {
	return &Runner{Profile: p, Seed: seed}
}

// Run executes reps repetitions (the paper averages over 15) of wf under
// opts and aggregates them. Every repetition is one core.Simulator.Run on
// the profile's platform with opts.OpModel and opts.Compute overwritten by
// the profile's machine model, freshly seeded per repetition. With
// opts.TraceSink set to trace.Retain only the final repetition retains
// its trace, for Result.Phases; the others count. Without opts.Placement
// the repetitions share one fraction placement, built once: a placement
// set is read-only during a run.
func (r *Runner) Run(wf *workflow.Workflow, opts core.RunOptions, reps int) (*Result, error) {
	if reps <= 0 {
		return nil, fmt.Errorf("testbed: reps must be positive, got %d", reps)
	}
	sim, err := core.NewSimulator(r.Profile.Platform)
	if err != nil {
		return nil, err
	}
	if opts.Placement == nil {
		set, err := placement.NewFraction(wf, opts.StagedFraction, opts.IntermediatesToBB)
		if err != nil {
			return nil, err
		}
		opts.Placement = set
	}
	res := &Result{TaskMeans: map[string][]float64{}}
	final := opts.TraceSink
	if final == trace.Retain {
		opts.TraceSink = nil // only the final repetition retains
	}
	// Seed resets a generator's whole state, so reseeding the same two
	// per repetition draws exactly the streams fresh ones would.
	opRNG, computeRNG := rand.New(rand.NewSource(0)), rand.New(rand.NewSource(0))
	noise := newNoise(&r.Profile)
	for rep := 0; rep < reps; rep++ {
		if rep == reps-1 {
			opts.TraceSink = final
		}
		seed := r.Seed + int64(rep)*1_000_003
		opRNG.Seed(seed)
		computeRNG.Seed(seed + 17)
		opts.OpModel = newOpModel(&r.Profile, noise, opts.StagedFraction, opRNG)
		opts.Compute = &computeModel{prof: &r.Profile, sigma: noise.compute, rng: computeRNG}
		run, err := sim.Run(wf, opts)
		if err != nil {
			return nil, err
		}
		res.Makespans = append(res.Makespans, run.Makespan)
		for _, s := range run.Summaries {
			res.TaskMeans[s.Name] = append(res.TaskMeans[s.Name], s.MeanExec)
		}
		if bw := run.BB.ReadBandwidth(); bw > 0 {
			res.BBReadBW = append(res.BBReadBW, float64(bw))
		}
		if bw := run.BB.WriteBandwidth(); bw > 0 {
			res.BBWriteBW = append(res.BBWriteBW, float64(bw))
		}
		if opts.TraceSink == trace.Retain {
			for _, rec := range run.Trace.Records() {
				res.Phases = append(res.Phases,
					calib.TaskPhases{Name: rec.Name, ExecTime: rec.ExecTime(), IOTime: rec.IOTime()})
			}
		}
	}
	return res, nil
}

// noise holds the lognormal sigma of each of a profile's noise sources,
// computed once from its coefficient of variation (see lognormalSigma).
type noise struct{ io, compute, load float64 }

func newNoise(prof *Profile) noise {
	return noise{
		io:      lognormalSigma(prof.IONoiseCV),
		compute: lognormalSigma(prof.ComputeNoiseCV),
		load:    lognormalSigma(prof.LoadNoiseCV),
	}
}

// opModel implements storage.OpModel with the profile's overheads.
type opModel struct {
	prof     *Profile
	ioSigma  float64 // lognormal sigma of the per-operation I/O noise
	fraction float64 // the run's staged fraction, for the Fig. 4 anomaly
	rng      *rand.Rand
	load     float64 // per-run background-load factor, ≥ drawn once
}

func newOpModel(prof *Profile, n noise, fraction float64, rng *rand.Rand) *opModel {
	m := &opModel{prof: prof, ioSigma: n.io, fraction: fraction, rng: rng, load: 1}
	if prof.LoadNoiseCV > 0 {
		m.load = lognormalFactor(rng, n.load)
	}
	return m
}

func (m *opModel) Adjust(ctx *storage.OpContext, base storage.OpParams) storage.OpParams {
	p := base
	switch ctx.Service.Kind() {
	case storage.KindPFS:
		switch ctx.Kind {
		case storage.OpRead:
			p.Latency += m.prof.PFSReadLatency
		default:
			p.Latency += m.prof.PFSWriteLatency
		}
		p.Latency += float64(m.prof.PFSMetaPenalty * float64(ctx.InFlight))
	default: // burst buffers, shared or on-node
		// A write of a stage-in task's file is the staging itself: it uses
		// the efficient staging path, not the POSIX task-I/O path.
		stageWrite := ctx.Kind != storage.OpRead &&
			ctx.File.Producer() != nil && ctx.File.Producer().Kind() == workflow.KindStageIn
		switch {
		case stageWrite:
			p.Latency += m.prof.StageWriteLatency
		case ctx.Kind == storage.OpRead:
			p.Latency += m.prof.BBReadLatency
		default:
			p.Latency += m.prof.BBWriteLatency
		}
		p.Latency += float64(m.prof.BBMetaPenalty * float64(ctx.InFlight))
		if !stageWrite && m.prof.SmallFileStreamCap > 0 && ctx.File.Size() < m.prof.SmallFileThreshold {
			//bbvet:allow float-compare -- zero is the "uncapped" sentinel bandwidth, never a computed rate
			if p.RateCap == 0 || m.prof.SmallFileStreamCap < p.RateCap {
				p.RateCap = m.prof.SmallFileStreamCap
			}
		}
		if m.prof.AnomalyFactor > 1 && stageWrite &&
			m.fraction >= m.prof.AnomalyLow && m.fraction < m.prof.AnomalyHigh {
			p.SizeFactor *= m.prof.AnomalyFactor
		}
	}
	if m.prof.IONoiseCV > 0 {
		p.SizeFactor *= lognormalFactor(m.rng, m.ioSigma)
	}
	p.SizeFactor *= m.load
	p.Latency *= m.load
	return p
}

// computeModel implements exec.ComputeModel: the machine's "true" compute
// scaling, with per-category Amdahl fractions, per-core overhead, and
// noise. The lightweight simulator does not know any of this — it assumes
// perfect speedup — which is exactly the modeling gap the paper
// quantifies.
type computeModel struct {
	prof  *Profile
	sigma float64 // lognormal sigma of the compute noise
	rng   *rand.Rand
}

func (m *computeModel) Duration(t *workflow.Task, node *platform.Node, cores int) float64 {
	alpha := m.prof.Alpha[t.Name()]
	gamma := m.prof.GammaPerCore[t.Name()]
	seq := float64(t.Work()) / float64(node.CoreSpeed())
	dur := float64(seq*(alpha+(1-alpha)/float64(cores))) + float64(gamma*float64(cores))
	if m.prof.ComputeNoiseCV > 0 {
		dur *= lognormalFactor(m.rng, m.sigma)
	}
	return dur
}

// lognormalSigma is the sigma of the unit-median lognormal distribution
// whose coefficient of variation is cv.
func lognormalSigma(cv float64) float64 {
	return math.Sqrt(math.Log(1 + float64(cv*cv)))
}

// lognormalFactor draws a multiplicative noise factor with unit median and
// the given lognormal sigma, clamped to [0.5, 3] so a tail draw cannot
// wreck a run.
func lognormalFactor(rng *rand.Rand, sigma float64) float64 {
	f := math.Exp(sigma * rng.NormFloat64())
	return math.Min(3, math.Max(0.5, f))
}
