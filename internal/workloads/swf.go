package workloads

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"bbwfsim/internal/units"
)

// SWFOptions tunes the mapping from a Standard Workload Format trace to
// sched jobs. The zero value is usable.
type SWFOptions struct {
	// BBPerProc is the burst-buffer demand attributed to each requested
	// processor when the trace's requested-memory field is absent (-1 or
	// 0). Zero leaves such jobs without a BB reservation (they still
	// stage through the BB channel with zero bytes held).
	BBPerProc units.Bytes
	// MaxJobs stops parsing after this many accepted jobs; 0 is
	// unlimited. Lets experiments take a prefix of a large trace.
	MaxJobs int
}

// swfFields is the column count of a Standard Workload Format record.
const swfFields = 18

// ParseSWF reads a subset of the Standard Workload Format
// (https://www.cs.huji.ac.il/labs/parallel/workload/swf.html): lines of 18
// whitespace-separated numeric fields, `;`-prefixed comment headers, and
// blank lines. The fields used are job number (1), submit time (2), run
// time (4), allocated processors (5), requested processors (8), requested
// time (9), and requested memory per processor in KB (10); the rest are
// accepted and ignored. Requested values fall back to the corresponding
// actual values when absent (-1), as the SWF specification prescribes.
//
// Jobs the trace marks unrunnable — zero or negative runtime, no
// processors — are skipped, not errors (real traces carry cancelled
// jobs); malformed lines (wrong field count, non-numeric fields, negative
// submit times) are errors. Processor counts map 1:1 to sched nodes.
//
// The accepted jobs (the first MaxJobs in trace order) are returned
// stable-sorted by submit time, the order the scheduler requires: real
// traces are usually sorted already, but this is enforced rather than
// trusted, and equal-submit records keep their trace order.
func ParseSWF(r io.Reader, opts SWFOptions) ([]Job, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var jobs []Job
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != swfFields {
			return nil, fmt.Errorf("workloads: swf line %d: %d fields, want %d", lineNo, len(fields), swfFields)
		}
		v := make([]float64, swfFields)
		for i, f := range fields {
			x, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("workloads: swf line %d field %d: %v", lineNo, i+1, err)
			}
			v[i] = x
		}
		submit := v[1]
		if submit < 0 {
			return nil, fmt.Errorf("workloads: swf line %d: negative submit time %g", lineNo, submit)
		}
		runtime := v[3]
		procs := v[7] // requested processors …
		if procs <= 0 {
			procs = v[4] // … fall back to allocated
		}
		walltime := v[8] // requested time …
		if walltime <= 0 {
			walltime = runtime // … fall back to actual
		}
		if runtime <= 0 || procs <= 0 {
			continue // cancelled or failed-before-start job: skip
		}
		var demand units.Bytes
		if mem := v[9]; mem > 0 {
			demand = units.Bytes(mem) * units.KiB * units.Bytes(procs)
		} else {
			demand = opts.BBPerProc * units.Bytes(procs)
		}
		j := Job{
			ID:       fmt.Sprintf("swf-%d", int64(v[0])),
			Submit:   submit,
			Runtime:  runtime,
			Walltime: walltime,
			Nodes:    int(procs),
			BBDemand: demand,
			StageIn:  demand,
			StageOut: demand / 2,
		}
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("workloads: swf line %d: %v", lineNo, err)
		}
		jobs = append(jobs, j)
		if opts.MaxJobs > 0 && len(jobs) >= opts.MaxJobs {
			break
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workloads: swf: %w", err)
	}
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].Submit < jobs[j].Submit })
	return jobs, nil
}
