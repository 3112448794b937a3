package calib_test

import (
	"testing"

	"bbwfsim/internal/calib"
	"bbwfsim/internal/swarp"
	"bbwfsim/internal/units"
)

// TestFromObservationsSwarpAnchor: calibrating the paper's resample
// observation (T(32) = 12 s, λ_io = 0.203) at Cori's core speed yields
// exactly the SWarp generator's default resample work.
func TestFromObservationsSwarpAnchor(t *testing.T) {
	c, err := calib.FromObservations([]calib.Observation{
		{TaskName: "resample", Cores: 32, Time: 12, LambdaIO: 0.203},
	}, 36.80*units.GFlopPerSec)
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.Work("resample")
	if err != nil {
		t.Fatal(err)
	}
	if w != swarp.ResampleWork {
		t.Errorf("calibrated work %v != swarp anchor %v", w, swarp.ResampleWork)
	}
}
