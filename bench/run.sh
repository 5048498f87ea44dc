#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout it
# is run from (Go's build cache and temp files go there too, so nothing
# is read or written outside the checkout) and runs it with the given
# arguments. Run from the repository root: bash bench/run.sh --workload ...
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$build/mlcr-bench" .
exec "$build/mlcr-bench" "$@"
