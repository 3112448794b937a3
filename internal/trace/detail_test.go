package trace

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestDetailMatchesFmt pins every detail form's rendering to the fmt
// verbs that define it, over seeded values and the verbs' edge cases
// (exponent cut-overs, rounding halves, extreme magnitudes), and checks
// that the zero Event renders empty.
func TestDetailMatchesFmt(t *testing.T) {
	floats := []float64{
		0, 0.5, 1.5, 2.5, 12, 0.000123456789, 999999.5, 123456.5, 123456789.5, 1e-5,
		1e15, 1e20, 1e21, 1e300, 1e-300, math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	ints := []int{0, 1, 7, 9, 10, 99, 100, 999, 1000, 123456, math.MaxInt32, math.MaxInt}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		if i%2 == 0 {
			floats = append(floats, math.Float64frombits(rng.Uint64()&^(1<<63)))
		} else {
			floats = append(floats, rng.ExpFloat64()*math.Pow(10, float64(rng.Intn(40)-20)))
		}
		ints = append(ints, rng.Intn(1<<20))
	}
	check := func(ev Event, want string) {
		t.Helper()
		if got := string(appendDetail(nil, &ev)); got != want {
			t.Fatalf("detail %q, fmt %q", got, want)
		}
	}
	check(Event{}, "")
	check(Named("cori-node003"), "cori-node003")
	check(At("f1", "bb@summit-node001"), "f1@bb@summit-node001")
	check(To("f1", "bb"), "f1->bb")
	check(To("f1", "pfs"), "f1->pfs")
	check(Full("f1"), "f1->pfs (bb full)")
	check(CopyToPFS("f1", "bb"), "f1@bb->pfs")
	check(NodeCause("cori-node000", "injected failure"), "cori-node000: injected failure")
	check(NodeFailed("cori-node000"), "node cori-node000 failed")
	check(LostFrom("resample_003"), "lost input from resample_003")
	check(Lost("p003_rimg00.fits"), "lost input p003_rimg00.fits")
	for i, x := range floats {
		y, n := floats[(i*7+3)%len(floats)], ints[i%len(ints)]
		m := int(int32(ints[(i+5)%len(ints)]))
		check(Progress("ckpt-0", "bb", x), fmt.Sprintf("%s@%s p=%g", "ckpt-0", "bb", x))
		check(Degrade("bb", x, y), fmt.Sprintf("%s x%g for %gs", "bb", x, y))
		check(Submit(n, x, y), fmt.Sprintf("nodes=%d bb=%.0f est=%.6g", n, x, y))
		check(Held(n, x), fmt.Sprintf("nodes=%d bb=%.0f", n, x))
		check(Reject(n, m, x, y), fmt.Sprintf("nodes=%d/%d bb=%.0f/%.0f", n, m, x, y))
	}
	for _, n := range ints {
		check(Attempt(n), fmt.Sprintf("attempt %d", n))
		check(Node(n), fmt.Sprintf("node%03d", n))
	}
}
