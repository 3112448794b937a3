package workloads

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"bbwfsim/internal/units"
)

// swfLine renders one 18-field SWF record with the given interesting
// fields; the remaining columns carry the spec's "-1" placeholder.
func swfLine(id int, submit, run float64, alloc, reqProcs int, reqTime, reqMemKB float64) string {
	f := make([]string, 18)
	for i := range f {
		f[i] = "-1"
	}
	f[0] = fmt.Sprintf("%d", id)
	f[1] = fmt.Sprintf("%g", submit)
	f[3] = fmt.Sprintf("%g", run)
	f[4] = fmt.Sprintf("%d", alloc)
	f[7] = fmt.Sprintf("%d", reqProcs)
	f[8] = fmt.Sprintf("%g", reqTime)
	f[9] = fmt.Sprintf("%g", reqMemKB)
	return strings.Join(f, " ")
}

func TestParseSWFBasic(t *testing.T) {
	doc := strings.Join([]string{
		"; Version: 2.2",
		";  Computer: test cluster",
		"",
		swfLine(1, 0, 120, 4, 4, 300, 1024),
		swfLine(2, 30, 60, 2, -1, -1, -1),  // requested fields fall back to actuals
		swfLine(3, 45, -1, 4, 4, 100, -1),  // cancelled: skipped
		swfLine(4, 50, 100, -1, -1, 60, 0), // no processors at all: skipped
	}, "\n")
	jobs, err := ParseSWF(strings.NewReader(doc), SWFOptions{BBPerProc: 2 * units.GiB})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("parsed %d jobs, want 2", len(jobs))
	}
	j := jobs[0]
	if j.ID != "swf-1" || j.Nodes != 4 || j.Runtime != 120 || j.Walltime != 300 {
		t.Fatalf("job 1 parsed wrong: %+v", j)
	}
	if want := units.Bytes(1024) * units.KiB * 4; j.BBDemand != want {
		t.Fatalf("job 1 BB demand %v, want %v (memory field)", j.BBDemand, want)
	}
	k := jobs[1]
	if k.Nodes != 2 || k.Walltime != 60 {
		t.Fatalf("job 2 fallbacks wrong: %+v", k)
	}
	if want := 2 * units.GiB * 2; k.BBDemand != want {
		t.Fatalf("job 2 BB demand %v, want %v (BBPerProc fallback)", k.BBDemand, want)
	}
}

func TestParseSWFMaxJobs(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 10; i++ {
		fmt.Fprintln(&b, swfLine(i, float64(i), 10, 1, 1, 20, -1))
	}
	jobs, err := ParseSWF(strings.NewReader(b.String()), SWFOptions{MaxJobs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("MaxJobs ignored: got %d jobs", len(jobs))
	}
}

func TestParseSWFErrors(t *testing.T) {
	bad := []string{
		"1 2 3",                          // wrong field count
		swfLine(1, -5, 10, 1, 1, 20, -1), // negative submit
		strings.Replace(swfLine(1, 0, 10, 1, 1, 20, -1), "10", "ten", 1), // non-numeric
		swfLine(1, 0, 10, 1, 1, 20, -1) + " 99",                          // 19 fields
	}
	for _, doc := range bad {
		if _, err := ParseSWF(strings.NewReader(doc), SWFOptions{}); err == nil {
			t.Errorf("ParseSWF accepted malformed line %q", doc)
		}
	}
}

// FuzzParseSWF is the native fuzz target: whatever the input, ParseSWF
// must return jobs that each pass Validate, in non-decreasing submit
// order, or an error — never panic.
func FuzzParseSWF(f *testing.F) {
	seeds := []string{
		"",
		"; comment only\n",
		swfLine(1, 0, 120, 4, 4, 300, 1024),
		swfLine(1, -1, 120, 4, 4, 300, 1024),
		"1 2 3 4\n",
		"NaN " + strings.Repeat("-1 ", 17),
		"1 Inf " + strings.Repeat("-1 ", 16),
		strings.Repeat("1 ", 18),
		"\x00\x01\x02",
		swfLine(2, 0, 1e308, 1, 1, 1e308, 1e308),
		swfLine(1, 100, 120, 2, 2, 300, -1) + "\n" + swfLine(2, 50, 240, 1, 1, 600, -1),
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs, err := ParseSWF(strings.NewReader(string(data)), SWFOptions{BBPerProc: units.GiB})
		if err != nil {
			return
		}
		for i := range jobs {
			if verr := jobs[i].Validate(); verr != nil {
				t.Fatalf("ParseSWF accepted a job Validate rejects: %v", verr)
			}
			if i > 0 && jobs[i].Submit < jobs[i-1].Submit {
				t.Fatalf("job %d submits at %v, before job %d at %v", i, jobs[i].Submit, i-1, jobs[i-1].Submit)
			}
		}
	})
}

// TestParseSWFSeededRandomDocs throws ~500 seeded random documents at the
// parser — valid records, negative fields, truncated lines, comment
// headers, spliced garbage — mirroring the workflow-JSON fuzz suite.
// ParseSWF must classify each one (jobs or error) without panicking, and
// every accepted job must validate.
func TestParseSWFSeededRandomDocs(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for iter := 0; iter < 500; iter++ {
		var b strings.Builder
		lines := rng.Intn(8)
		for l := 0; l < lines; l++ {
			switch rng.Intn(10) {
			case 0:
				fmt.Fprintf(&b, "; header %d\n", rng.Intn(100))
			case 1:
				fmt.Fprintln(&b)
			case 2: // wrong field count
				n := rng.Intn(25)
				fmt.Fprintln(&b, strings.TrimSpace(strings.Repeat("1 ", n)))
			case 3: // garbage token in a random column
				fields := strings.Fields(swfLine(l, float64(rng.Intn(100)), float64(rng.Intn(500)), 1+rng.Intn(8), 1+rng.Intn(8), float64(rng.Intn(1000)), float64(rng.Intn(4096))))
				fields[rng.Intn(len(fields))] = "garbage"
				fmt.Fprintln(&b, strings.Join(fields, " "))
			default: // structurally fine record with occasionally negative fields
				line := swfLine(l,
					float64(rng.Intn(200)-20),
					float64(rng.Intn(500)-50),
					rng.Intn(10)-1, rng.Intn(10)-1,
					float64(rng.Intn(600)-60),
					float64(rng.Intn(4096)-256))
				fmt.Fprintln(&b, line)
			}
		}
		doc := b.String()
		// Occasionally truncate mid-line.
		if len(doc) > 0 && rng.Intn(5) == 0 {
			doc = doc[:rng.Intn(len(doc))]
		}
		jobs, err := ParseSWF(strings.NewReader(doc), SWFOptions{BBPerProc: units.Bytes(rng.Intn(3)) * units.GiB})
		if err != nil {
			continue
		}
		for i := range jobs {
			if verr := jobs[i].Validate(); verr != nil {
				t.Fatalf("iter %d: accepted job fails Validate: %v\ndoc:\n%s", iter, verr, doc)
			}
		}
	}
}

func TestCampaignDeterministicAndValid(t *testing.T) {
	spec := CampaignSpec{Jobs: 200, Seed: 7}
	a, err := Campaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Campaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 200 || len(b) != 200 {
		t.Fatalf("campaign lengths %d/%d, want 200", len(a), len(b))
	}
	prev := 0.0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs between identical specs:\n%+v\n%+v", i, a[i], b[i])
		}
		if err := a[i].Validate(); err != nil {
			t.Fatalf("generated job invalid: %v", err)
		}
		if a[i].Submit < prev {
			t.Fatalf("job %d submits at %g before job %d at %g", i, a[i].Submit, i-1, prev)
		}
		prev = a[i].Submit
	}
	c, err := Campaign(CampaignSpec{Jobs: 200, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i].Runtime == c[i].Runtime { // counting identical draws across different seeds
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced an identical campaign")
	}
}

func TestCampaignRejectsBadSpec(t *testing.T) {
	if _, err := Campaign(CampaignSpec{}); err == nil {
		t.Fatal("Campaign accepted a zero job count")
	}
	if _, err := Campaign(CampaignSpec{Jobs: 5, ArrivalMean: -1}); err == nil {
		t.Fatal("Campaign accepted a negative arrival mean")
	}
}
