// Command perfbench is the repository's benchmark. It runs one named
// workload in its own process, checks the workload's outputs, and prints
// every metric by name with its unit; BENCHMARK.json at the repository root
// declares the workloads, the metrics and the bound by which each
// end-to-end metric may worsen before a change counts as a regression.
//
// perfbench is a module of its own (perfbench/go.mod replaces bbwfsim with
// the enclosing checkout), so the root module's build, tests and coverage
// do not include it. From the root of a checkout:
//
//	bash perfbench/run.sh --workload sched-10k --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload sched-10k --seed 1 --seconds 30 --trace 1
//	(cd perfbench && go test .)                             # smoke runs at ~1/100 size
//	(cd perfbench && go test -run TestUpdateGoldens -update .)  # after a model change
//
// run.sh builds the binary from the checkout, keeping the build cache, the
// binary and every file the run writes under .bench_build/, then runs it.
//
// # Output
//
// Standard output is the host reference's line (untraced runs only), a
// table of the metrics, each with the median, first and third quartiles and
// count of its per-round values, then one JSON line, always the last:
//
//	{"correct": true, "attempted": 12250, "failed": 0, "metrics": {"cpu_s": {"value": 2.91, "unit": "s"}, ...}}
//
// attempted counts the operations and correctness checks the run made and
// failed those that errored, were refused or did not match; their ratio is
// the run's error ratio, printed above the JSON line. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones.
//
// # Workloads
//
// Each run sets its workload up five times (setup_s is the median; the
// last set-up is measured), then runs fixed-size rounds, and the host
// reference between them, until another round would overrun --seconds,
// and at least two rounds. Work is spread over GOMAXPROCS goroutines
// (runner jobs, server workers); service-cold adds one client goroutine
// and one connection.
//
//	workload       round                                       operation
//	paper-full     every experiment of experiments.All() at    experiment
//	               full size and seed 1, rendered as CSV
//	service-cold   500 requests never sent before              HTTP request
//	sched-10k      the six sched policies on one 10,000-job    scheduled job
//	               campaign
//
// A latency is what a caller waits for: one HTTP request, from sending it
// until its reply is read, or one round of a batch workload.
//
// Why these three:
//
//   - paper-full is what a reproducer runs (bbexp -exp all). It covers
//     experiments, runner, testbed and calib, many small core runs with
//     retained traces, the sched experiment's campaigns and the scale
//     experiment's generated workflows up to 100,000 tasks. Its seed is 1
//     whatever --seed says, because results/full_results.csv is its
//     golden.
//   - service-cold is bbsimd's write path: every request misses, so
//     Execute, result encoding, the cache fill and Journal.Append
//     dominate; it is the workload for a faster cold path. The loop is
//     closed because bbsimd's callers wait for each reply, and has one
//     client so that a request's latency is its service time rather than
//     its wait behind another client's request on a two-core host.
//     Requests are service.SeededRequest draws from --seed.
//   - sched-10k is the sched experiment's scarce cell (32 nodes, 128 GiB of
//     BB, ~94% utilization) at ten times its campaign length, the
//     campaign shape of BBSimulator; plan's reservation profile is the hot
//     path. It runs no core simulation, so it is the control for a change
//     to the cold path, as service-cold's single runs are for a change to
//     the schedulers. Its campaign is pinned to seed 1 (see schedSeed).
//
// A cache-hit workload and a 100,000-task scale workload were tried and
// dropped: on a shared two-core host, five workloads leave each run 15
// seconds, too short to repeat within the bounds, and paper-full already
// runs the scale experiment. ParseRequest, CanonicalHash and Cache.Get,
// the layers of the cache-hit path, are still timed in service-cold's
// traced run.
//
// # End-to-end metrics
//
// Every workload reports every metric; the table above says what an
// operation is for each.
//
//	setup_s         s     median of the five set-ups
//	cpu_s           s     median round process CPU, user plus system (getrusage)
//	peak_rss_mb     MB    peak resident set of the process (VmHWM), in MiB
//	ops_per_s       1/s   median over rounds of operations per second
//	latency_p50_ms  ms    median latency, pooled over every round
//	latency_p90_ms  ms    90th percentile latency, pooled over every round
//
// A round's wall time is latency_p50_ms for the batch workloads and the
// round's operations over ops_per_s for service-cold, so it is not a
// metric of its own.
//
// Every time (and ops_per_s) is scaled to a reference host. Between its
// rounds, and between the experiments or policies of a batch round, an
// untraced run has a child process time a fixed unit of standard-library
// work, for a fifth of the run, and multiplies each time by refNominal
// (40 ms) over the unit's median; a round's time leaves the units out. The
// line above the table gives the unit's median, quartiles and count and
// the factor. On a shared host the workloads and the unit slow down and
// speed up together, so the scaled times move far less between runs than
// the raw ones, while a change to the repository moves only the workloads
// (see reference.go).
//
// Correctness is not a metric but the run's correct, attempted and failed
// fields. A check that fails counts as a failed operation:
//
//   - paper-full: the SHA-256 of the round's CSV equals the golden, which
//     TestPaperGoldenIsCommittedResults pins to results/full_results.csv.
//   - sched-10k: each policy's completed count, mean wait and mean slowdown
//     equal the golden bit for bit, in every round.
//   - service-cold: every reply is a miss; a seeded one in eight is
//     recomputed with service.Execute after the rounds and must be equal;
//     reopening the journal must restore exactly the run's cache fills.
//
// Goldens live in testdata/golden.json, keyed by workload and size.
//
// # Traced run
//
// --trace 1 runs the same workload with rounds alternating untraced and
// traced, all under the CPU profiler, so host drift hits both alike. A
// traced round records spans around the calls perfbench makes into each
// layer; a span has a name, start, end, parent and request id. Spans stay
// in memory and are written with each name's self time (duration minus
// its children's) to .bench_build/perfbench-out/<workload>-seed<n>.spans.json
// next to the CPU profile. service-cold then replays the last round's
// requests through ParseRequest, CanonicalHash, Cache.Get, Execute and
// Journal.Append on a private cache and journal, so each layer is timed
// alone. End-to-end numbers come only from --trace 0 runs. Spans inside
// the simulator's own packages are not recorded.
//
// Every per-layer metric is printed for every workload; one the workload
// does not exercise reads 0. Each should move the end-to-end metrics of
// the workloads named here, and leave the others flat:
//
//	per-layer metric                              moves                       on
//	service.parse_us, service.hash_us,            latency_p50_ms, ops_per_s   service-cold, a small
//	  service.cache_get_us, service.http_overhead_us, cpu.http                share
//	service.execute_ms                            ops_per_s, latency_p90_ms   service-cold
//	service.journal_append_us                     latency_p90_ms              service-cold
//	service.latency_p99_ms, service.response_kb   reported only               service-cold
//	sched.<policy>_s, sched.events,               latency_p50_ms, ops_per_s   sched-10k, a little of
//	  sched.us_per_event                                                      service-cold and paper-full
//	workloads.campaign_ms                         setup_s                     sched-10k
//	experiments.<id>_s, runner.cpu_utilization    latency_p50_ms, ops_per_s   paper-full
//	cpu.<package>                                 the package's layer         every workload
//	bench.trace_overhead_pct                      none                        every workload
//
// service.http_overhead_us is the untraced rounds' HTTP p50 minus the sum
// of the replayed layers' medians. One service request in five is a small
// sched campaign. runner.cpu_utilization is process CPU over wall time
// times GOMAXPROCS, across the traced run's rounds. cpu.<package> is each
// package's share of the profile's flat samples in percent, folded from
// `go tool pprof -top`: json is encoding/json, http the net and net/http
// packages, gc the collector's marking, sweeping and write barriers.
// Without the go tool the shares are left out. bench.trace_overhead_pct is
// the traced rounds' median wall time over the untraced rounds', minus
// one, in percent.
//
// # Bounds
//
// Every end-to-end bound in BENCHMARK.json is 0.25, the widest a bound may
// be: even scaled by the reference, a shared host moves the numbers by a
// tenth between runs, and a noisier host by more. The bounds were checked
// with two sets of ten runs of each workload, the ten runs of a workload
// back to back, on a virtual machine with 2 vCPUs and no CPU performance
// counters, shared with other tenants (seeds 1-10, then 101-110):
//
//	for w in paper-full service-cold sched-10k; do
//	  for s in 1 2 3 4 5 6 7 8 9 10; do
//	    bash perfbench/run.sh --workload $w --seed $s --seconds 30 --trace 0
//	  done
//	done
//
// A metric's spread is the distance between the first and third quartiles
// of its ten values, over their median. Apart from setup_s, the spreads
// were 0.05-0.09 (paper-full), 0.04-0.08 (service-cold) and 0.03-0.09
// (sched-10k), the largest for latency_p90_ms, a high order statistic of
// few rounds in the batch workloads; setup_s spread 0.12-0.22. No median
// moved by more than 8% between the two sets. In sets of the same kind
// the unscaled times spread 0.14-0.31. A run takes about 30 s, and
// paper-full's up to 50 s with its five set-ups.
package main
