package runner_test

import (
	"testing"

	"mlcr/internal/fstartbench"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
)

// benchRuns is the BenchmarkSweep workload: a HI-Sim multi-policy sweep
// (4 policies × 4 pool sizes on the high-similarity workload), the shape
// of one Fig 11 panel cell.
func benchRuns() []sweepRun {
	w := fstartbench.Build(fstartbench.HiSim, 1, fstartbench.Options{})
	mks := []func() platform.Scheduler{
		func() platform.Scheduler { return policy.NewLRU() },
		func() platform.Scheduler { return policy.NewFaasCache() },
		func() platform.Scheduler { return policy.NewKeepAlive() },
		func() platform.Scheduler { return policy.NewGreedyMatch() },
	}
	var runs []sweepRun
	for _, poolMB := range []float64{1000, 2000, 3000, 4000} {
		for _, mk := range mks {
			runs = append(runs, sweepRun{"sweep", w, poolMB, mk})
		}
	}
	return runs
}

// BenchmarkSweepSequential is the 16-run HI-Sim sweep at parallelism 1.
func BenchmarkSweepSequential(b *testing.B) {
	runs := benchRuns()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSweep(runs, 1, nil)
	}
}

// BenchmarkSweepParallel is the same sweep at GOMAXPROCS parallelism;
// compare against BenchmarkSweepSequential for the harness speedup.
func BenchmarkSweepParallel(b *testing.B) {
	runs := benchRuns()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSweep(runs, 0, nil)
	}
}
