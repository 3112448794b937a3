package service

import "testing"

// BenchmarkExecuteCold times one uncached evaluation of a seeded request,
// the work a bbsimd cache miss pays; its allocs/op is the cold-path
// allocation target.
func BenchmarkExecuteCold(b *testing.B) {
	req := SeededRequest(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(&req); err != nil {
			b.Fatal(err)
		}
	}
}
