#!/usr/bin/env bash
# Builds the perfbench binary from the checkout it is run in and runs one
# workload with the arguments given, for example
#
#   bash perfbench/run.sh --workload service-hot --seed 3 --seconds 10 --trace 0
#
# Run it from the root of the repository. Every file the Go toolchain and
# the benchmark write (build cache, binary, scratch files, spans, profiles)
# stays under .bench_build/ in that directory.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a bbwfsim checkout (go.mod, internal/ and perfbench/ must exist)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
# Telemetry off keeps the go command from writing counters or starting an
# upload process that would outlive the benchmark.
printf 'off\n' >"$build/config/go/telemetry/mode"

export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" -dir "$build/perfbench-out" "$@"
