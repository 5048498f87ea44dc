#!/bin/sh
# check.sh — pre-merge gate: formatting, vet, race-enabled tests of
# every package, CLI smokes, and the repository benchmark's own tests.
# The default run uses -short, which skips the long DQN training
# experiments but still exercises every concurrency-sensitive path (the
# parallel run harness, cluster workers, the gateway hammer test and
# observability registries all race-test in the short set). Set FULL=1
# for the complete race suite including training runs (~10 min).
# Performance is not gated here: `make bench-ab` needs a parent commit
# and minutes of host time.
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

if [ "${FULL:-}" = "1" ]; then
    echo "== go test -race (all packages, full) =="
    go test -race ./...
else
    echo "== go test -race -short (all packages) =="
    go test -race -short ./...
fi

echo "== nn row kernel: 5 s of FuzzMatMulKernel (assembly against the Go definition) =="
go test -run '^$' -fuzz '^FuzzMatMulKernel$' -fuzztime 5s ./internal/nn

echo "== arm64 cross-build (the path without the assembly kernel must keep compiling) =="
GOARCH=arm64 go build ./... && GOARCH=arm64 go vet ./internal/nn

echo "== scheduler × evictor grid smoke (every registered eviction policy) =="
go run ./cmd/mlcr-sim -workload Uniform -count 200 -evictor all > /dev/null

echo "== cluster routing smoke (every registered router × evictor, race-enabled) =="
go run -race ./cmd/mlcr-sim -workload Uniform -count 200 -workers 8 -routing all -evictor lfu > /dev/null

echo "== BenchmarkSimCore smoke (1 invocation) =="
go test -run '^$' -bench '^BenchmarkSimCore$' -benchtime 1x -count 1 .

echo "== repository benchmark smoke (bench/ is its own module: per-lap fingerprint and exact-count output checks) =="
(cd bench && GOFLAGS=-mod=readonly GOWORK=off go test .)

echo "check: all green"
