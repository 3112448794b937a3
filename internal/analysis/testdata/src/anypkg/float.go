// Fixture for the float-compare rule: exact floating-point equality is
// flagged everywhere outside tests unless justified.
package anypkg

func compare(a, b float64, xs []float32) (int, bool) {
	hits := 0
	if a == b { // want `float-compare`
		hits++
	}
	if a != 0 { // want `float-compare`
		hits++
	}
	var f float32
	if xs[0] == f { // want `float-compare`
		hits++
	}
	const c1, c2 = 1.5, 2.5
	if c1 == c2 { // constant-folded at compile time: not flagged
		hits++
	}
	//bbvet:allow float-compare -- fixture: a justified exact comparison is honored
	exact := a == b
	_ = a*b + 1                 // outside the deterministic packages implicit-fma does not apply
	return hits, a < b || exact // ordering comparisons are fine
}
