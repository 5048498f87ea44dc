package experiments

import (
	"testing"

	"mlcr/internal/fstartbench"
	"mlcr/internal/mlcr"
	"mlcr/internal/platform"
	"mlcr/internal/runner"
)

// endToEndRuns runs the regression sweep at the given parallelism:
// every baseline policy plus an MLCR scheduler (untrained, seeded
// weights — the full DQN inference path with its cached weight
// transposes, without the training cost) over two pool sizes of one
// workload, one RunAll per pool. Each call builds its setups afresh so
// the two executions below share no mutable state.
func endToEndRuns(parallelism int, w, cfgSeed int64) []*platform.RunResult {
	wl := fstartbench.Build(fstartbench.HiSim, w, fstartbench.Options{Count: 150})
	cfg := mlcr.Config{Seed: cfgSeed, NormMB: 1024}
	setups := append(Baselines(), SetupOf("Cost-Greedy", 0), MLCRSetup(mlcr.New(cfg)))
	var out []*platform.RunResult
	for _, poolMB := range []float64{1200, 3000} {
		out = append(out, RunAll(setups, wl, poolMB, Options{Parallelism: parallelism})...)
	}
	return out
}

// TestSpecDeterminismEndToEnd locks the property the mlcr-vet
// analyzers (internal/lint, DESIGN.md §9) enforce at the source
// level: the same runs executed twice — once at -parallel 1, once at
// -parallel 8 — produce identical fingerprints run for run, DQN
// inference included. A walltime/detrand/maprange violation anywhere
// on the scheduling path shows up here as a fingerprint mismatch; this
// test keeps the analyzers honest end to end.
func TestSpecDeterminismEndToEnd(t *testing.T) {
	seq := endToEndRuns(1, 5, 7)
	par := endToEndRuns(8, 5, 7)
	if len(seq) != len(par) {
		t.Fatalf("result lengths differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		a, b := runner.Fingerprint(seq[i]), runner.Fingerprint(par[i])
		if a != b {
			t.Errorf("run %d: -parallel 8 fingerprint differs from -parallel 1:\nseq: %.200s\npar: %.200s", i, a, b)
		}
	}
}
