#!/bin/sh
# check.sh — pre-merge gate: formatting, vet, and race-enabled tests of
# every package. The default run uses -short, which skips the long DQN
# training experiments but still exercises every concurrency-sensitive
# path (the parallel run harness, cluster workers, HTTP API and
# observability registries all race-test in the short set). Set FULL=1
# for the complete race suite including training runs (~10 min).
# Run from the repository root, or via `make check` / `make check-full`.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== make vet (go vet + mlcr-vet: determinism + hot-path contracts, DESIGN.md §9, §14) =="
${MAKE:-make} vet

echo "== mlcr-vet hotalloc smoke (call-graph hot-path alloc contract alone, DESIGN.md §14) =="
go run ./cmd/mlcr-vet -run hotalloc ./...

if [ "${FULL:-}" = "1" ]; then
    echo "== go test -race (all packages, full) =="
    go test -race ./...
else
    echo "== go test -race -short (all packages) =="
    go test -race -short ./...
fi

echo "== scheduler × evictor grid smoke (every registered eviction policy) =="
go run ./cmd/mlcr-sim -workload Uniform -count 200 -evictor all > /dev/null

echo "== cluster routing smoke (every registered router × evictor, race-enabled) =="
go run -race ./cmd/mlcr-sim -workload Uniform -count 200 -workers 8 -routing all -evictor lfu > /dev/null

echo "== serving-path smoke (gateway vs coarse under mlcr-load, race-enabled) =="
go run -race ./cmd/mlcr-load -n 4000 -c 8 -engine both > /dev/null

echo "== BenchmarkSimCore smoke (1 invocation) =="
go test -run '^$' -bench '^BenchmarkSimCore$' -benchtime 1x -count 1 .

echo "== repository benchmark smoke (bench/ is its own module: per-lap fingerprint and exact-count output checks) =="
(cd bench && GOFLAGS=-mod=readonly GOWORK=off go test .)

echo "== bench-regression gate (BENCH_all.json schema + quick thresholds) =="
if [ -f BENCH_all.json ]; then
    go run ./cmd/mlcr-perf -validate BENCH_all.json
    go run ./cmd/mlcr-perf -check -baseline BENCH_all.json -n 200000 -cluster-n 200000 -serve-n 200000
else
    echo "no BENCH_all.json baseline; skipping threshold check (run make bench-all)"
    go run ./cmd/mlcr-perf -quick -tiers hotpath > /dev/null
fi

echo "check: all green"
