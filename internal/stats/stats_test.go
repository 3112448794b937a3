package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

func TestMean(t *testing.T) {
	if !approx(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Error("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
}

func TestStd(t *testing.T) {
	if !approx(Std([]float64{2, 4, 4, 4, 5, 5, 7, 9}), 2.138089935299395) {
		t.Errorf("Std = %v", Std([]float64{2, 4, 4, 4, 5, 5, 7, 9}))
	}
	if Std([]float64{5}) != 0 || Std(nil) != 0 {
		t.Error("Std of <2 samples should be 0")
	}
}

func TestCV(t *testing.T) {
	xs := []float64{10, 10, 10}
	if CV(xs) != 0 {
		t.Error("CV of constant series should be 0")
	}
	if CV([]float64{0, 0}) != 0 {
		t.Error("CV with zero mean should be 0")
	}
	if CV([]float64{9, 11}) <= 0 {
		t.Error("CV of varied series should be positive")
	}
}

func TestMinMaxMedian(t *testing.T) {
	min, max := MinMax([]float64{3, 1, 4, 1, 5})
	if min != 1 || max != 5 {
		t.Errorf("MinMax = %v, %v", min, max)
	}
	if m, _ := MinMax(nil); m != 0 {
		t.Error("MinMax(nil) != 0")
	}
}

func TestRelErr(t *testing.T) {
	if !approx(RelErr(110, 100), 0.1) {
		t.Error("RelErr wrong")
	}
	if !approx(RelErr(90, 100), 0.1) {
		t.Error("RelErr should be symmetric around reference")
	}
	if RelErr(0, 0) != 0 {
		t.Error("RelErr(0,0) != 0")
	}
	if !math.IsInf(RelErr(1, 0), 1) {
		t.Error("RelErr(x,0) should be +Inf")
	}
}

func TestMeanRelErr(t *testing.T) {
	got, err := MeanRelErr([]float64{110, 90}, []float64{100, 100})
	if err != nil || !approx(got, 0.1) {
		t.Errorf("MeanRelErr = %v (%v)", got, err)
	}
	if _, err := MeanRelErr([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := MeanRelErr(nil, nil); err == nil {
		t.Error("empty series accepted")
	}
}

func TestSpeedup(t *testing.T) {
	s := Speedup(100, []float64{100, 50, 25})
	want := []float64{1, 2, 4}
	for i := range want {
		if !approx(s[i], want[i]) {
			t.Errorf("Speedup[%d] = %v, want %v", i, s[i], want[i])
		}
	}
	if !math.IsInf(Speedup(1, []float64{0})[0], 1) {
		t.Error("Speedup over zero should be +Inf")
	}
}

func TestSameTrend(t *testing.T) {
	if !SameTrend([]float64{1, 2, 3}, []float64{10, 20, 30}, 0) {
		t.Error("monotone series should agree")
	}
	if SameTrend([]float64{1, 2, 3}, []float64{10, 5, 30}, 0) {
		t.Error("opposite step should disagree")
	}
	// A small wiggle under the tolerance counts as flat.
	if !SameTrend([]float64{100, 101, 200}, []float64{100, 99.9, 200}, 0.05) {
		t.Error("wiggle within tolerance should agree")
	}
	if !SameTrend([]float64{1}, []float64{2}, 0) {
		t.Error("single points trivially agree")
	}
	if SameTrend([]float64{1, 2}, []float64{2}, 0) {
		t.Error("length mismatch should disagree")
	}
}

// Property: Std is translation-invariant and scales with |k|; Mean is
// linear.
func TestMomentsQuick(t *testing.T) {
	f := func(raw []uint16, shiftRaw uint8) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) / 7
		}
		shift := float64(shiftRaw)
		shifted := make([]float64, len(xs))
		scaled := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + shift
			scaled[i] = 3 * x
		}
		tol := 1e-6 * math.Max(1, Std(xs))
		return math.Abs(Std(shifted)-Std(xs)) < tol &&
			math.Abs(Std(scaled)-3*Std(xs)) < 3*tol &&
			math.Abs(Mean(shifted)-(Mean(xs)+shift)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: min ≤ mean ≤ max.
func TestOrderQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		min, max := MinMax(xs)
		mean := Mean(xs)
		return min <= mean+1e-9 && mean <= max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
