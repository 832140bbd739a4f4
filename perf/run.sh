#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments, from the repository root:
#
#   bash perf/run.sh --workload untar16 --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and CPU profiles all stay under
# $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd perf && go build -o "$out/perf" .)
exec "$out/perf" -out "$out" "$@"
