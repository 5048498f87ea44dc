#!/bin/sh
# check.sh — pre-merge gate: formatting, vet, race-enabled tests of
# every package, CLI smokes, and the repository benchmark's own tests.
# The default run uses -short, which skips the long DQN training
# experiments but still exercises every concurrency-sensitive path (the
# parallel run harness, cluster workers, the gateway hammer test and
# observability registries all race-test in the short set). The race
# step is also the sole owner of the router shard contract: a stateless
# router that writes shared state returns the right answer and is caught
# only as a data race in TestEveryRouterParallelMatchesSequential
# (DESIGN.md §14). Set FULL=1 for the complete race suite including
# training runs (~10 min).
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

echo "== make vet (go vet + mlcr-vet: determinism + construction contracts, DESIGN.md §9) =="
${MAKE:-make} vet

if [ "${FULL:-}" = "1" ]; then
    echo "== go test -race (all packages, full; owns the router shard contract, DESIGN.md §14) =="
    go test -race ./...
else
    echo "== go test -race -short (all packages; owns the router shard contract, DESIGN.md §14) =="
    go test -race -short ./...
fi

echo "== nn row kernel: 5 s of FuzzMatMulKernel (assembly against the Go definition) =="
go test -run '^$' -fuzz '^FuzzMatMulKernel$' -fuzztime 5s ./internal/nn

echo "== nn forward: 5 s of FuzzAttentionForward (in-place attention and paired LayerNorm against the copying forwards) =="
go test -run '^$' -fuzz '^FuzzAttentionForward$' -fuzztime 5s ./internal/nn

echo "== trace parser: 5 s of FuzzTraceRead (Read never panics; what it accepts replays) =="
go test -run '^$' -fuzz '^FuzzTraceRead$' -fuzztime 5s ./internal/trace

echo "== POST /invoke: 5 s of FuzzInvokeRequest (no body panics either gateway mlcr-server builds, sim or default; an invoke at trace.MaxMS is still served) =="
go test -run '^$' -fuzz '^FuzzInvokeRequest$' -fuzztime 5s ./internal/api

echo "== Dockerfile parser: 5 s of FuzzDockerfileParse (Parse never panics; its image matches itself at L3) =="
go test -run '^$' -fuzz '^FuzzDockerfileParse$' -fuzztime 5s ./internal/dockerfile

echo "== model loader: 5 s of FuzzNNLoad (Load never panics; a refused snapshot leaves the weights as they were, an accepted one leaves them finite) =="
go test -run '^$' -fuzz '^FuzzNNLoad$' -fuzztime 5s ./internal/nn

echo "== arm64 cross-build (the path without the assembly kernel must keep compiling) =="
GOARCH=arm64 go build ./... && GOARCH=arm64 go vet ./internal/nn

echo "== scheduler × evictor grid smoke (every registered eviction policy) =="
go run ./cmd/mlcr-sim -workload Uniform -count 200 -evictor all > /dev/null

echo "== single-platform smoke of a registry-only scheduler (every CLI resolves -policy through policy.New) =="
go run ./cmd/mlcr-sim -workload Uniform -count 200 -policy Tabular-Q > /dev/null

echo "== metrics export smoke (-metrics-out writes the startup latency as an HDR-backed summary) =="
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
go run ./cmd/mlcr-sim -workload Uniform -count 200 -metrics-out "$tmp" > /dev/null
grep -qx '# TYPE mlcr_startup_seconds summary' "$tmp"

echo "== cluster routing smoke (every registered router × evictor, race-enabled) =="
go run -race ./cmd/mlcr-sim -workload Uniform -count 200 -workers 8 -routing all -evictor faascache > /dev/null

echo "== BenchmarkSimCore smoke (1 invocation) =="
go test -run '^$' -bench '^BenchmarkSimCore$' -benchtime 1x -count 1 .

echo "== repository benchmark smoke (bench/ is its own module: per-lap fingerprint and exact-count output checks) =="
(cd bench && GOFLAGS=-mod=readonly GOWORK=off go test .)

echo "== make size (non-test internal/, cmd/ + examples/, internal/ tests) =="
${MAKE:-make} size

echo "check: all green"
