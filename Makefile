GO ?= go

.PHONY: build test vet check check-full bench-ab

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static analysis: the standard go vet plus mlcr-vet, the project's
# ten analyzers enforcing the determinism and hot-path contracts over
# the typed module call graph (DESIGN.md §9, §14). Machine-readable
# output via `go run ./cmd/mlcr-vet -json ./...` (or -sarif). Also
# part of make check via scripts/check.sh.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/mlcr-vet ./...

# Pre-merge gate: gofmt, vet, and race-enabled tests of every package
# (-short skips the long DQN training experiments; the parallel harness,
# cluster and observability race tests all run).
check:
	sh scripts/check.sh

# The same gate with the complete race suite, training runs included.
check-full:
	FULL=1 sh scripts/check.sh

# Performance gate: alternating parent-vs-change pairs of the repository
# benchmark (bench/run.sh) on this box, judged by its own -compare
# bounds. REF names the parent (default HEAD), PAIRS the pair count
# (default 3); ARGS goes to both sides' bench/run.sh, e.g.
# ARGS="-only sim_cluster --seconds 5".
bench-ab:
	sh scripts/bench_ab.sh $(ARGS)
