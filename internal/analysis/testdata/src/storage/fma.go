// Fixture for the implicit-fma rule: in a deterministic package a float
// product added to or subtracted from another value may be fused into one
// multiply-add on some architectures, so the product must be rounded
// explicitly.
package storage

func fused(a, b, c float64, xs []float32) (float64, float32) {
	s := a*b + c     // want `implicit-fma`
	s = c - a*b      // want `implicit-fma`
	s = (a * b) - c  // want `implicit-fma`
	s = c + -(a * b) // want `implicit-fma`
	s += a * b       // want `implicit-fma`
	s -= a * b * c   // want `implicit-fma`
	var f float32
	f += xs[0] * xs[1] // want `implicit-fma`
	return s, f
}

func rounded(a, b, c float64, k int) float64 {
	s := float64(a*b) + c // the conversion rounds the product: not flagged
	s -= float64(a * b)
	s = a/b + c             // no product
	s += a*b*0 + float64(a) // want `implicit-fma`
	n := k*k + 1            // integer arithmetic is exact
	const c1, c2 = 1.5, 2.5
	s += c1*c2 + float64(n) // the product is folded at compile time
	s *= a + b              // a product of a sum cannot fuse
	//bbvet:allow implicit-fma -- fixture: a justified suppression is honored
	s = a*b + s
	return s
}
