package invariants

import (
	"math"

	"bbwfsim/internal/core"
	"bbwfsim/internal/metrics"
	"bbwfsim/internal/trace"
)

// checkCkpt replays the checkpoint/restart events of one run and validates
// the recovery invariants against the emitted snapshot:
//
//	a. every restart-from references a snapshot replica that is live at the
//	   restart instant — committed (or drained to the PFS) and not since
//	   destroyed by a fault. The replay's live set is a superset of the
//	   engine's (rotation evictions record no event), so a restart from a
//	   truly dead replica always trips this;
//	b. each restart recovers at most the compute its task has lost to
//	   aborted attempts so far — a checkpoint cannot recover work that was
//	   never executed;
//	c. the recovered-seconds counters sum to the progress marks the
//	   restart-from events carry (only the regrouping by tier needs a
//	   tolerance);
//	d. checkpoint traffic is a subset of storage traffic: ckpt_bytes_total
//	   never exceeds storage_bytes_total for any (tier, op) — snapshots
//	   move through the same storage manager as workflow data, so byte
//	   conservation (invariant 2) covers them too;
//	e. every restart-from recovers, bit for bit, the progress mark the
//	   ckpt-commit of its snapshot file captured: each commit writes a file
//	   of its own (ckpt-<task>-<seq>), so the restore names the commit it
//	   reads. Checks b and c bound and re-add the restart's mark; this one
//	   ties it to the write that produced it.
func checkCkpt(snap *metrics.Snapshot, res *core.Result, violation func(string, ...any)) {
	// Live snapshot replicas: file -> set of service names. Drains add the
	// PFS replica; losses remove the named one.
	live := map[string]map[string]bool{}
	committed := map[string]float64{} // file -> the progress its commit captured
	started := map[string]float64{}   // task -> current attempt's start
	aborted := map[string]float64{}   // task -> aborted-attempt seconds so far
	recovered := 0.0                  // Σ restart progress marks, event order

	for i, ev := range res.Trace.Events() {
		switch ev.Kind {
		case trace.TaskStart:
			started[ev.TaskID] = ev.Time
		case trace.TaskFail:
			aborted[ev.TaskID] += ev.Time - started[ev.TaskID]
		case trace.CkptCommit:
			if live[ev.Name] == nil {
				live[ev.Name] = map[string]bool{}
			}
			live[ev.Name][ev.Place] = true
			committed[ev.Name] = ev.X
		case trace.CkptDrain:
			if live[ev.Name] == nil {
				violation("event %d: drain of never-committed snapshot %q", i, ev.Name)
				continue
			}
			live[ev.Name]["pfs"] = true
		case trace.CkptLost:
			delete(live[ev.Name], ev.Place)
		case trace.RestartFrom:
			file, svc, p := ev.Name, ev.Place, ev.X
			if !live[file][svc] {
				violation("event %d: task %s restarted from %s@%s, which is not durable at t=%g",
					i, ev.TaskID, file, svc, ev.Time)
			}
			if max := aborted[ev.TaskID]; p > max+float64(spanEps*(1+max)) {
				violation("event %d: task %s recovered %g compute seconds but only lost %g to aborts",
					i, ev.TaskID, p, max)
			}
			if c, ok := committed[file]; ok && math.Float64bits(c) != math.Float64bits(p) {
				violation("event %d: task %s recovered %g compute seconds from %s, whose commit captured %g",
					i, ev.TaskID, p, file, c)
			}
			recovered += p
		}
	}

	total := 0.0
	for _, s := range snap.Counters {
		if s.Family == metrics.CkptRecoveredSecondsTotal {
			total += s.Value
		}
	}
	if diff := total - recovered; diff > spanEps*(1+recovered) || -diff > spanEps*(1+recovered) {
		violation("ckpt_recovered_seconds_total sums to %g, restart-from events carry %g", total, recovered)
	}

	for _, s := range snap.Counters {
		if s.Family != metrics.CkptBytesTotal {
			continue
		}
		storageBytes := snap.Counter(metrics.StorageBytesTotal, s.Key)
		if s.Value > storageBytes {
			violation("ckpt_bytes_total%+v = %g exceeds storage_bytes_total %g: checkpoint traffic bypassed the storage manager",
				s.Key, s.Value, storageBytes)
		}
	}
}
