#!/usr/bin/env bash
# Builds the repository benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload batch-n100 --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout. Everything it writes (Go build cache,
# binary, fixtures, results, traces) stays under .bench_build/ in that
# checkout. The last line of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

# Fixtures are made by a process of their own, so their memory never counts
# in the measured process's peak RSS and their time in none of its timings.
"$out/perfbench" --gen "$@" >&2
exec "$out/perfbench" "$@"
