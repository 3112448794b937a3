package workloads

import (
	"fmt"
	"math"
	"math/rand"

	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

// Job is one batch job of a multi-tenant campaign (internal/sched): a
// rigid allocation of compute nodes plus a burst-buffer reservation,
// executed as the BBSimulator-style three-phase stage-in / run / stage-out
// sequence. Jobs come from SWF trace files (ParseSWF) or from the seeded
// synthetic generator (Campaign).
type Job struct {
	// ID identifies the job in traces and result tables.
	ID string
	// Submit is the job's arrival instant in virtual seconds.
	Submit float64
	// Runtime is the actual compute-phase duration in seconds.
	Runtime float64
	// Walltime is the user's runtime estimate the scheduler plans with
	// (backfill shadow times, plan-based reservations). It may over- or
	// underestimate Runtime, exactly as real SWF estimates do.
	Walltime float64
	// Nodes is the rigid node allocation the job holds while active.
	Nodes int
	// BBDemand is the burst-buffer reservation held from stage-in start
	// to stage-out end (zero for jobs that bypass the BB).
	BBDemand units.Bytes
	// StageIn and StageOut are the bytes moved before and after the
	// compute phase.
	StageIn  units.Bytes
	StageOut units.Bytes
}

// Validate reports structural errors that make a job unschedulable on any
// cluster (a scheduler rejects such jobs at admission instead of failing).
func (j *Job) Validate() error {
	if j.ID == "" {
		return fmt.Errorf("workloads: job with empty ID")
	}
	if j.Submit < 0 || math.IsNaN(j.Submit) || math.IsInf(j.Submit, 0) {
		return fmt.Errorf("workloads: job %s: submit time %g", j.ID, j.Submit)
	}
	if j.Runtime <= 0 || math.IsNaN(j.Runtime) || math.IsInf(j.Runtime, 0) {
		return fmt.Errorf("workloads: job %s: runtime %g", j.ID, j.Runtime)
	}
	if j.Walltime <= 0 || math.IsNaN(j.Walltime) || math.IsInf(j.Walltime, 0) {
		return fmt.Errorf("workloads: job %s: walltime estimate %g", j.ID, j.Walltime)
	}
	if j.Nodes <= 0 {
		return fmt.Errorf("workloads: job %s: node request %d", j.ID, j.Nodes)
	}
	for _, v := range []units.Bytes{j.BBDemand, j.StageIn, j.StageOut} {
		if v < 0 || math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return fmt.Errorf("workloads: job %s: bad data volume %g", j.ID, float64(v))
		}
	}
	return nil
}

// CampaignSpec parameterizes the synthetic campaign generator. The zero
// value of every field selects a default, so CampaignSpec{Jobs: 1000,
// Seed: 1} is a complete specification.
type CampaignSpec struct {
	// Jobs is the campaign length (required, positive).
	Jobs int
	// Seed drives every draw; same spec, same campaign, bit for bit.
	Seed int64
	// ArrivalMean is the exponential inter-arrival mean in seconds
	// (default 30).
	ArrivalMean float64
	// RuntimeMean is the exponential runtime mean in seconds (default
	// 600). Runtimes are clamped to ≥ 10 s.
	RuntimeMean float64
	// MaxNodes bounds the per-job node request; requests are drawn
	// log-uniformly in [1, MaxNodes] (default 16).
	MaxNodes int
	// BBMean is the mean burst-buffer demand per requested node
	// (default 16 GiB). Demands are whole-MiB multiples so byte tallies
	// stay exact float sums.
	BBMean units.Bytes
}

func (s *CampaignSpec) withDefaults() (CampaignSpec, error) {
	q := *s
	if q.Jobs <= 0 {
		return q, fmt.Errorf("workloads: campaign needs a positive job count, got %d", q.Jobs)
	}
	if q.ArrivalMean == 0 { //bbvet:allow float-compare -- zero is the "use default" sentinel for an unset parameter
		q.ArrivalMean = 30
	}
	if q.RuntimeMean == 0 { //bbvet:allow float-compare -- zero is the "use default" sentinel for an unset parameter
		q.RuntimeMean = 600
	}
	if q.MaxNodes == 0 {
		q.MaxNodes = 16
	}
	if q.BBMean == 0 { //bbvet:allow float-compare -- zero is the "use default" sentinel for an unset parameter
		q.BBMean = 16 * units.GiB
	}
	if q.ArrivalMean < 0 || q.RuntimeMean < 0 || q.MaxNodes < 0 || q.BBMean < 0 {
		return q, fmt.Errorf("workloads: campaign spec has negative parameters")
	}
	return q, nil
}

// Campaign generates a seeded synthetic job campaign: exponential
// arrivals, exponential runtimes, log-uniform node requests, and per-node
// burst-buffer demands in whole MiB. Walltime estimates multiply the true
// runtime by a factor drawn in [1, 3] — the over-estimation behavior real
// SWF traces exhibit — with one job in eight underestimating (factor in
// [0.5, 1)), so schedulers must tolerate estimate violations.
func Campaign(spec CampaignSpec) ([]Job, error) {
	s, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.Seed))
	jobs := make([]Job, 0, s.Jobs)
	now := 0.0
	logMax := math.Log(float64(s.MaxNodes))
	for i := 0; i < s.Jobs; i++ {
		now += float64(-s.ArrivalMean * math.Log(1-float64(rng.Float64())))
		runtime := -s.RuntimeMean * math.Log(1-float64(rng.Float64()))
		if runtime < 10 {
			runtime = 10
		}
		nodes := int(math.Exp(rng.Float64() * logMax))
		if nodes < 1 {
			nodes = 1
		}
		if nodes > s.MaxNodes {
			nodes = s.MaxNodes
		}
		//bbvet:allow implicit-fma -- doubling is exact, so a fused and an unfused 1 + 2x round alike
		factor := 1 + 2*float64(rng.Float64())
		if rng.Intn(8) == 0 {
			factor = 0.5 + float64(0.5*rng.Float64())
		}
		// Whole-MiB demands: exact float sums regardless of order.
		span := int(2 * s.BBMean / units.MiB)
		if span < 1 {
			span = 1
		}
		perNode := units.Bytes(1+rng.Intn(span)) * units.MiB
		demand := perNode * units.Bytes(nodes)
		jobs = append(jobs, Job{
			ID:       "job-" + workflow.PadInt(i, 6),
			Submit:   now,
			Runtime:  runtime,
			Walltime: runtime * factor,
			Nodes:    nodes,
			BBDemand: demand,
			StageIn:  demand,
			StageOut: demand / 2,
		})
	}
	return jobs, nil
}
