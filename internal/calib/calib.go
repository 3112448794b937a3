// Package calib implements the paper's calibration model (Section IV-A,
// Equations 1–4): from an observed task execution time T(p) on p cores and
// the observed fraction of time spent in I/O (λ_io), derive the purely
// computational sequential time T_c(1) that the simulator needs as input.
//
//	Eq. 1:  T_c(p) = (1 − λ_io) · T(p)
//	Eq. 2:  T_c(p) = α · T_c(1) + (1 − α) · T_c(1)/p        (Amdahl)
//	Eq. 3:  T_c(1) = (1 − λ_io) · T(p) / (α + (1 − α)/p)
//	Eq. 4:  T_c(1) = p · (1 − λ_io) · T(p)                  (α = 0)
//
// The paper's headline model assumes perfect speedup (Eq. 4); Eq. 3 is kept
// for the ablation that quantifies what that assumption costs.
package calib

import (
	"fmt"

	"bbwfsim/internal/units"
)

// Observation is one measured task execution.
type Observation struct {
	// TaskName is the task category ("resample", "combine", ...).
	TaskName string
	// Cores is p, the number of cores the observation used.
	Cores int
	// Time is T(p), the observed wall time in seconds (I/O included).
	Time float64
	// LambdaIO is λ_io, the observed fraction of Time spent in I/O.
	LambdaIO float64
	// Alpha is the Amdahl non-parallelizable fraction; 0 reproduces the
	// paper's perfect-speedup assumption.
	Alpha float64
}

// Validate reports malformed observations.
func (o *Observation) Validate() error {
	if o.Cores <= 0 {
		return fmt.Errorf("calib: observation %q: cores %d must be positive", o.TaskName, o.Cores)
	}
	if o.Time < 0 {
		return fmt.Errorf("calib: observation %q: negative time %g", o.TaskName, o.Time)
	}
	if o.LambdaIO < 0 || o.LambdaIO >= 1 {
		return fmt.Errorf("calib: observation %q: λ_io %g outside [0,1)", o.TaskName, o.LambdaIO)
	}
	if o.Alpha < 0 || o.Alpha > 1 {
		return fmt.Errorf("calib: observation %q: α %g outside [0,1]", o.TaskName, o.Alpha)
	}
	return nil
}

// ComputeTimeAtP implements Eq. 1: the compute-only time at p cores.
func (o *Observation) ComputeTimeAtP() float64 {
	return (1 - o.LambdaIO) * o.Time
}

// SequentialComputeTime implements Eq. 3 (and its α = 0 special case,
// Eq. 4): the task's compute-only time on one core.
func (o *Observation) SequentialComputeTime() (float64, error) {
	if err := o.Validate(); err != nil {
		return 0, err
	}
	denom := o.Alpha + (1-o.Alpha)/float64(o.Cores)
	return o.ComputeTimeAtP() / denom, nil
}

// Work converts the sequential compute time to platform-independent work
// given the speed of the cores the observation was taken on.
func (o *Observation) Work(coreSpeed units.FlopRate) (units.Flops, error) {
	seq, err := o.SequentialComputeTime()
	if err != nil {
		return 0, err
	}
	return units.Flops(seq * float64(coreSpeed)), nil
}

// PredictTime inverts the model: given the sequential compute time, predict
// the observed wall time on p cores (compute via Eq. 2, inflated back by
// λ_io). Tests use it to check the algebra.
//
//bbvet:allow unreached -- the Eq. 4 calibration round-trip relation planned among the independent oracles is its next caller
func PredictTime(seqComputeTime float64, p int, lambdaIO, alpha float64) (float64, error) {
	if p <= 0 {
		return 0, fmt.Errorf("calib: predict with %d cores", p)
	}
	if lambdaIO < 0 || lambdaIO >= 1 {
		return 0, fmt.Errorf("calib: predict with λ_io %g", lambdaIO)
	}
	if alpha < 0 || alpha > 1 {
		return 0, fmt.Errorf("calib: predict with α %g", alpha)
	}
	computeAtP := seqComputeTime * (alpha + (1-alpha)/float64(p))
	return computeAtP / (1 - lambdaIO), nil
}

// Calibration maps task categories to their calibrated sequential work.
type Calibration map[string]units.Flops

// FromObservations averages the calibrated work of same-name observations.
func FromObservations(obs []Observation, coreSpeed units.FlopRate) (Calibration, error) {
	if coreSpeed <= 0 {
		return nil, fmt.Errorf("calib: core speed %v must be positive", coreSpeed)
	}
	sums := map[string]float64{}
	counts := map[string]int{}
	for i := range obs {
		w, err := obs[i].Work(coreSpeed)
		if err != nil {
			return nil, err
		}
		sums[obs[i].TaskName] += float64(w)
		counts[obs[i].TaskName]++
	}
	c := Calibration{}
	for name, sum := range sums {
		c[name] = units.Flops(sum / float64(counts[name]))
	}
	return c, nil
}

// Work returns the calibrated work for a task category, or an error when
// the category was never observed.
func (c Calibration) Work(name string) (units.Flops, error) {
	w, ok := c[name]
	if !ok {
		return 0, fmt.Errorf("calib: no observation for task %q", name)
	}
	return w, nil
}

// The λ_io values the paper takes from Daley et al.'s characterization of
// SWarp on Cori (Section IV-A): Resample 0.203, Combine 0.260. They are
// reused for Summit, as the paper does.
const (
	LambdaIOResample = 0.203
	LambdaIOCombine  = 0.260
)

// TaskPhases is the slice of per-task phase measurements LambdaFromRecords
// consumes; trace.TaskRecord satisfies it via the adapter in the caller.
type TaskPhases struct {
	Name     string
	ExecTime float64
	IOTime   float64
}

// LambdaFromRecords estimates λ_io per task category from observed
// executions: the mean fraction of wall time spent in I/O phases. The
// paper instead reuses λ values characterized on the PFS for every storage
// mode; re-measuring λ on the target mode is the obvious refinement (and
// the ablation-lambda experiment quantifies what it buys). Estimates are
// clamped just below 1 so they remain valid calibration inputs.
func LambdaFromRecords(records []TaskPhases) map[string]float64 {
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, r := range records {
		if r.ExecTime <= 0 {
			continue
		}
		frac := r.IOTime / r.ExecTime
		if frac < 0 {
			frac = 0
		}
		if frac > 0.999999 {
			frac = 0.999999
		}
		sums[r.Name] += frac
		counts[r.Name]++
	}
	out := map[string]float64{}
	for name, sum := range sums {
		out[name] = sum / float64(counts[name])
	}
	return out
}
