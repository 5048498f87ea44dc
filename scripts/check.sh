#!/bin/sh
# check.sh — pre-merge gate: formatting, vet, race-enabled tests of
# every package, CLI smokes, and the repository benchmark's own tests.
# The default run uses -short, which skips the long DQN training
# experiments but still exercises every concurrency-sensitive path (the
# parallel run harness, cluster workers, the gateway hammer test and
# the observability endpoints all race-test in the short set). The race
# step is also the sole owner of the router shard contract: a stateless
# router that writes shared state returns the right answer and is caught
# only as a data race in TestEveryRouterParallelMatchesSequential
# (DESIGN.md §14). It owns the "served weights are read-only" contract
# the same way: clones of one MLCR model share its weights, and a
# serving path that wrote them is caught as a data race in
# TestSharedClonesReplayConcurrently (DESIGN.md §8), which does not
# skip under -short. Set FULL=1 for the complete race suite including
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

echo "== make vet (go vet + mlcr-vet: determinism and error contracts, DESIGN.md §9) =="
${MAKE:-make} vet

if [ "${FULL:-}" = "1" ]; then
    echo "== go test -race (all packages, full; owns the router shard and read-only served weights contracts, DESIGN.md §14) =="
    go test -race ./...
else
    echo "== go test -race -short (all packages; owns the router shard and read-only served weights contracts, DESIGN.md §14) =="
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

echo "== model loader: 5 s of FuzzNNLoad (Load never panics; a refused snapshot leaves the weights as they were, an accepted one leaves them finite) =="
go test -run '^$' -fuzz '^FuzzNNLoad$' -fuzztime 5s ./internal/nn

echo "== MLCR model loader: 5 s of FuzzMLCRLoad (Load never panics; it refuses a config it cannot build before allocating the network) =="
go test -run '^$' -fuzz '^FuzzMLCRLoad$' -fuzztime 5s ./internal/mlcr

echo "== arm64 cross-build (the path without the assembly kernel must keep compiling) =="
GOARCH=arm64 go build ./... && GOARCH=arm64 go vet ./internal/nn

echo "== comparison sweep smokes (experiments.Sweep: the scheduler × evictor grid over every registered eviction policy, and every policy with a one-episode MLCR) =="
go run ./cmd/mlcr-sim -workload Uniform -count 200 -evictor all > /dev/null
go run ./cmd/mlcr-sim -workload Uniform -count 200 -policy all -episodes 1 > /dev/null

echo "== single-platform smoke of a registry-only scheduler (every CLI resolves -policy through policy.New) =="
go run ./cmd/mlcr-sim -workload Uniform -count 200 -policy Tabular-Q > /dev/null

echo "== metrics export smoke (every producer derives its series from the run: platform, cluster and training exports through obs.WritePrometheus) =="
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
go run ./cmd/mlcr-sim -workload Uniform -count 200 -metrics-out "$tmp" > /dev/null 2>&1
grep -qx '# TYPE mlcr_startup_seconds summary' "$tmp"
# pool.Stats.Oversize keeps the oversize kills a series of their own beside the other rejections.
go run ./cmd/mlcr-sim -workload Peak -seed 7 -pool 0.05 -policy KeepAlive -metrics-out "$tmp" > /dev/null 2>&1
grep -q '^mlcr_pool_evictions_total{policy="keepalive",reason="oversize"} ' "$tmp"
grep -q '^mlcr_pool_evictions_total{policy="keepalive",reason="rejected"} ' "$tmp"
go run ./cmd/mlcr-sim -workload Peak -seed 7 -workers 8 -routing p2c -metrics-out "$tmp" > /dev/null 2>&1
grep -q '^mlcr_cluster_routed_total{worker="0"} ' "$tmp"
grep -q '^mlcr_cold_starts_total ' "$tmp"
go run ./cmd/mlcr-train -workload Uniform -episodes 1 -out /dev/null -metrics-out "$tmp" > /dev/null
grep -q '^mlcr_train_steps_total ' "$tmp"

echo "== audit derivation smoke (the audit is a reduction of the trace: -audit-out alone and beside -trace-out write the same 300 decisions) =="
audit=$(mktemp -d)
trap 'rm -f "$tmp"; rm -rf "$audit"' EXIT
go run ./cmd/mlcr-sim -workload Peak -seed 7 -policy Greedy-Match -audit-out "$audit/alone.jsonl" > /dev/null 2>&1
go run ./cmd/mlcr-sim -workload Peak -seed 7 -policy Greedy-Match -trace-out "$audit/x.jsonl" -audit-out "$audit/traced.jsonl" > /dev/null 2>&1
cmp "$audit/alone.jsonl" "$audit/traced.jsonl"
lines=$(wc -l < "$audit/alone.jsonl")
if [ "$lines" -ne 300 ]; then
    echo "audit has $lines decisions, want 300" >&2
    exit 1
fi

echo "== train -> replay smoke (mlcr-train saves a self-describing model; mlcr-sim -model replays it without training) =="
model=$(mktemp)
trap 'rm -f "$tmp" "$model"; rm -rf "$audit"' EXIT
go run ./cmd/mlcr-train -workload Uniform -episodes 1 -out "$model" > /dev/null
go run ./cmd/mlcr-sim -workload Uniform -count 200 -policy MLCR -model "$model" > /dev/null

echo "== mlcr-bench smoke (figure 1 renders; figure 9 trains through a Study; the grid and cluster sweeps render; an unknown figure, -workers 0 and mlcr-train -episodes 0 exit 2) =="
# Built, not run through go run, which reports every failure as exit 1.
bench_bin=$(mktemp -d)
trap 'rm -f "$tmp" "$model"; rm -rf "$audit" "$bench_bin"' EXIT
go build -o "$bench_bin/" ./cmd/mlcr-bench ./cmd/mlcr-train
"$bench_bin/mlcr-bench" -fig 1 > /dev/null
"$bench_bin/mlcr-bench" -fig 9 -repeats 1 -episodes 1 > /dev/null
"$bench_bin/mlcr-bench" -fig grid > /dev/null
"$bench_bin/mlcr-bench" -fig cluster -workers 4 > /dev/null
for cmd in "mlcr-bench -fig no-such-figure" "mlcr-bench -fig cluster -workers 0" "mlcr-train -episodes 0"; do
    status=0
    "$bench_bin/"$cmd > /dev/null 2>&1 || status=$?
    if [ "$status" -ne 2 ]; then
        echo "$cmd: exit status $status, want 2" >&2
        exit 1
    fi
done

echo "== cluster routing smoke (every registered router × evictor, race-enabled) =="
go run -race ./cmd/mlcr-sim -workload Uniform -count 200 -workers 8 -routing all -evictor faascache > /dev/null

echo "== cluster pairing smoke (no -evictor: each worker pairs KeepAlive with its own TTL evictor, race-enabled) =="
go run -race ./cmd/mlcr-sim -workload Uniform -count 200 -workers 8 -routing all -policy KeepAlive > /dev/null

echo "== BenchmarkSimCore smoke (1 invocation) =="
go test -run '^$' -bench '^BenchmarkSimCore$' -benchtime 1x -count 1 .

echo "== BenchmarkTrainStep smoke (1 DQN update at the benchmark's training shape) =="
go test -run '^$' -bench '^BenchmarkTrainStep$' -benchtime 1x -count 1 ./internal/drl

echo "== BenchmarkMerge smoke (1 merge of the benchmark's sim_cluster trace shape) =="
go test -run '^$' -bench '^BenchmarkMerge$' -benchmem -benchtime 1x -count 1 ./internal/workload

echo "== repository benchmark smoke (bench/ is its own module: per-lap fingerprint and exact-count output checks) =="
(cd bench && GOFLAGS=-mod=readonly GOWORK=off go test .)

echo "== make size (non-test internal/, cmd/, internal/ tests) =="
${MAKE:-make} size

echo "check: all green"
