// Package stats provides the small statistical toolkit the experiment
// harness uses: means, standard deviations, coefficients of variation, and
// the relative-error metrics the paper reports for simulator accuracy.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean; it is 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Std returns the sample standard deviation (n−1 denominator); it is 0 for
// fewer than two samples.
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += float64(d * d)
	}
	return math.Sqrt(sum / float64(len(xs)-1))
}

// CV returns the coefficient of variation (Std/Mean); it is 0 when the mean
// is 0.
func CV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 { //bbvet:allow float-compare -- exact-zero guard against division by zero
		return 0
	}
	return Std(xs) / m
}

// MinMax returns the extremes; both are 0 for an empty slice.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// RelErr returns |predicted − reference| / reference. A zero reference with
// nonzero prediction yields +Inf.
func RelErr(predicted, reference float64) float64 {
	//bbvet:allow float-compare -- exact-zero guard against division by zero (and 0/0 below)
	if reference == 0 {
		if predicted == 0 { //bbvet:allow float-compare -- distinguishes the exact 0/0 case
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(predicted-reference) / math.Abs(reference)
}

// MeanRelErr averages RelErr pointwise over two equal-length series.
func MeanRelErr(predicted, reference []float64) (float64, error) {
	if len(predicted) != len(reference) {
		return 0, fmt.Errorf("stats: series lengths differ: %d vs %d", len(predicted), len(reference))
	}
	if len(predicted) == 0 {
		return 0, fmt.Errorf("stats: empty series")
	}
	sum := 0.0
	for i := range predicted {
		sum += RelErr(predicted[i], reference[i])
	}
	return sum / float64(len(predicted)), nil
}

// Speedup returns baseline/current for each point of a series: the metric
// of Fig. 14 (speedup over the 0%-staged configuration).
func Speedup(baseline float64, series []float64) []float64 {
	out := make([]float64, len(series))
	for i, x := range series {
		if x == 0 { //bbvet:allow float-compare -- exact-zero guard against division by zero
			out[i] = math.Inf(1)
			continue
		}
		out[i] = baseline / x
	}
	return out
}

// SameTrend reports whether two series move in the same direction at every
// step, tolerating steps smaller than tol·|value| as flat. The paper's
// accuracy discussion is about trend agreement as much as point error.
func SameTrend(a, b []float64, tol float64) bool {
	if len(a) != len(b) || len(a) < 2 {
		return len(a) == len(b)
	}
	sign := func(prev, cur float64) int {
		d := cur - prev
		if math.Abs(d) <= tol*math.Max(math.Abs(prev), math.Abs(cur)) {
			return 0
		}
		if d > 0 {
			return 1
		}
		return -1
	}
	for i := 1; i < len(a); i++ {
		sa, sb := sign(a[i-1], a[i]), sign(b[i-1], b[i])
		if sa != 0 && sb != 0 && sa != sb {
			return false
		}
	}
	return true
}
