package main

import (
	"bufio"
	"container/heap"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The reference measures the host. On a shared virtual machine every
// timing moves with the host's speed: with unchanged code, the medians of
// ten runs of a workload moved by 20-30% from one set of runs to the next,
// far more than a change to the code should be allowed to hide. So each
// untraced run also times a fixed reference unit, written with the
// standard library alone, between and within its rounds, and scales every
// reported time by refNominal over the unit's median: a time is reported as
// it would read on a host where the unit takes refNominal. No change to the
// repository can make the unit faster or slower, so a change to the
// repository moves the scaled times as much as the raw ones.
//
// The unit mixes the host resources the workloads lean on: integer work in
// the L1 cache, a pointer chase through 8 MiB that misses the caches, and
// allocation-heavy heap, map and sort work that keeps the collector busy.
// It runs in a child process, so that its memory and garbage neither count
// in the workload's peak RSS nor change the workload's collections, and
// the workload's heap does not change the unit's speed. The child only
// runs while the workload waits for it, so the two never compete for a
// core.

// refNominal is the reference unit's median time, in seconds, on the host
// the reported times are scaled to (a quiet 2-vCPU virtual machine).
const refNominal = 0.040

// refShare is the share of a run's measured time given to the reference.
const refShare = 0.2

// refEnv, set to 1, makes the binary serve reference units instead of
// running a workload; it is how the benchmark starts its reference child.
const refEnv = "PERFBENCH_REFERENCE"

// hostRef is the reference child process and the unit times it reported.
type hostRef struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Scanner
	units []float64
	total float64 // sum of units
}

// startReference starts the reference child: this binary with refEnv set.
func startReference() (*hostRef, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), refEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &hostRef{cmd: cmd, in: in, out: bufio.NewScanner(out)}, nil
}

// run has the child run one unit and records its time.
func (h *hostRef) run() (float64, error) {
	if _, err := io.WriteString(h.in, "1\n"); err != nil {
		return 0, err
	}
	if !h.out.Scan() {
		if err := h.out.Err(); err != nil {
			return 0, err
		}
		return 0, fmt.Errorf("reference child exited")
	}
	d, err := strconv.ParseFloat(strings.TrimSpace(h.out.Text()), 64)
	if err != nil {
		return 0, fmt.Errorf("reference child: %w", err)
	}
	h.units = append(h.units, d)
	h.total += d
	return d, nil
}

// pause runs reference units, in a run that has a reference, until they
// have taken refShare of the time since the rounds began. Rounds call it
// between their steps, and measure after each round, so the units sample
// the host all through the run; the time it takes is not the round's.
func (e *env) pause() error {
	if e.ref == nil {
		return nil
	}
	t0 := time.Now()
	for e.ref.total < refShare*time.Since(e.start).Seconds() {
		if _, err := e.ref.run(); err != nil {
			return fmt.Errorf("reference: %w", err)
		}
	}
	e.paused += time.Since(t0)
	return nil
}

// scale is what the run's times are multiplied by: refNominal over the
// median unit.
func (h *hostRef) scale() float64 { return refNominal / median(h.units) }

// close ends the child and waits for it.
func (h *hostRef) close() error {
	err := h.in.Close()
	if werr := h.cmd.Wait(); err == nil {
		err = werr
	}
	return err
}

// serveReference is the child's side: for each line n read from r it runs
// n units and writes each unit's time in seconds, one per line, to w.
func serveReference(r io.Reader, w io.Writer) error {
	u := newRefUnit()
	in := bufio.NewScanner(r)
	bw := bufio.NewWriter(w)
	for in.Scan() {
		n, err := strconv.Atoi(strings.TrimSpace(in.Text()))
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			fmt.Fprintf(bw, "%.9f\n", u.run())
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
	return in.Err()
}

// refUnit is the reference unit's state. Its output feeds sum, so the
// compiler cannot drop any of the work.
type refUnit struct {
	table [4096]uint64
	chase []int32
	sum   uint64
}

const refChaseLen = 1 << 21 // 8 MiB of int32

func newRefUnit() *refUnit {
	u := &refUnit{chase: make([]int32, refChaseLen)}
	for i := range u.table {
		u.table[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	// Sattolo's shuffle makes one cycle through every slot.
	perm := make([]int32, refChaseLen)
	for i := range perm {
		perm[i] = int32(i)
	}
	z := uint64(1)
	for i := len(perm) - 1; i > 0; i-- {
		z = z*6364136223846793005 + 1442695040888963407
		j := int((z >> 33) % uint64(i))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i, p := range perm {
		u.chase[p] = perm[(i+1)%len(perm)]
	}
	return u
}

// run does one unit and returns its wall time in seconds.
func (u *refUnit) run() float64 {
	t0 := time.Now()

	var s uint64
	for k := 0; k < 2000; k++ {
		for i := range u.table {
			s += u.table[(i*7919)&(len(u.table)-1)] ^ s>>3
		}
	}

	p := int32(s & 1)
	for i := 0; i < 150_000; i++ {
		p = u.chase[p]
	}

	q := &refQueue{}
	byID := make(map[int]*refEvent)
	z := s | 1
	for i := 0; i < 20_000; i++ {
		z = z*6364136223846793005 + 1442695040888963407
		ev := &refEvent{at: float64(z>>11) / (1 << 53), id: i, data: make([]int, 4)}
		heap.Push(q, ev)
		byID[i] = ev
	}
	ats := make([]float64, 0, q.Len())
	for q.Len() > 0 {
		ev := heap.Pop(q).(*refEvent)
		ats = append(ats, ev.at+float64(len(byID[ev.id].data)))
	}
	sort.Float64s(ats)

	u.sum += s + uint64(p) + uint64(len(ats))
	return time.Since(t0).Seconds()
}

type refEvent struct {
	at   float64
	id   int
	data []int
}

type refQueue []*refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}
