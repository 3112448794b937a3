package ckpt

import (
	"math"

	"bbwfsim/internal/units"
)

// This file implements the classic optimal-checkpoint-interval
// approximations the resilience-ckpt experiment reports as its reference
// column: Young's first-order formula and Daly's higher-order refinement.
// Both trade the overhead of checkpointing too often against the rework of
// checkpointing too rarely, given the checkpoint cost C (seconds to commit
// one snapshot) and the mean time between failures M.

// YoungInterval returns Young's first-order optimum W ≈ sqrt(2·C·M): the
// compute time between checkpoints that minimizes expected total runtime
// when C ≪ M. Non-positive inputs return 0 (no finite optimum).
func YoungInterval(cost, mtbf float64) float64 {
	if cost <= 0 || mtbf <= 0 {
		return 0
	}
	return math.Sqrt(2 * cost * mtbf)
}

// DalyInterval returns Daly's higher-order perturbation solution
//
//	W = sqrt(2·C·M)·[1 + (1/3)·sqrt(C/(2M)) + (1/9)·(C/(2M))] − C
//
// valid for C < 2M; for C ≥ 2M the optimum saturates at W = M. It refines
// Young's formula when the checkpoint cost is not negligible against the
// failure rate. Non-positive inputs return 0.
func DalyInterval(cost, mtbf float64) float64 {
	if cost <= 0 || mtbf <= 0 {
		return 0
	}
	if cost >= 2*mtbf {
		return mtbf
	}
	x := math.Sqrt(cost / (2 * mtbf))
	return float64(math.Sqrt(2*cost*mtbf)*(1+x/3+x*x/9)) - cost
}

// WriteCost estimates the time one checkpoint commit occupies the writing
// task: the target tier's fixed write latency plus the snapshot streaming
// at the given bandwidth (the single-stream rate the writer actually
// achieves, not the tier's aggregate). It is the C that feeds the interval
// formulas above.
func WriteCost(size units.Bytes, latency float64, bw units.Bandwidth) float64 {
	if bw <= 0 {
		return latency
	}
	return latency + size.Seconds(bw)
}
