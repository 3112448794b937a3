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

// mixRequests is the request mix perfbench's service-cold workload
// draws from: SeededRequest over 500 consecutive seeds, so single runs of
// every workflow kind and sched campaigns in SeededRequest's proportions.
func mixRequests() []Request {
	reqs := make([]Request, 500)
	for i := range reqs {
		reqs[i] = SeededRequest(1000 + int64(i))
	}
	return reqs
}

// BenchmarkExecuteMix evaluates the whole mix once per iteration; ns/op
// divided by 500 is the mean cold evaluation.
func BenchmarkExecuteMix(b *testing.B) {
	reqs := mixRequests()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for k := range reqs {
			if _, err := Execute(&reqs[k]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// allocsPerRequest is the allocation budget of one Execute over the mix:
// the mean measured on amd64 with go1.24, plus 15%.
const allocsPerRequest = 964 * 1.15

// TestExecuteAllocBudget pins the mean allocations of an Execute over
// the mix, so an allocation added per task, file, storage operation or
// encoded field shows up as a multiple of the mix's size.
func TestExecuteAllocBudget(t *testing.T) {
	reqs := mixRequests()
	var err error
	allocs := testing.AllocsPerRun(1, func() {
		for k := range reqs {
			if _, err = Execute(&reqs[k]); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	perRequest := allocs / float64(len(reqs))
	t.Logf("%.1f allocations per request", perRequest)
	if perRequest > allocsPerRequest {
		t.Errorf("%.1f allocations per request, budget %.1f", perRequest, allocsPerRequest)
	}
}
