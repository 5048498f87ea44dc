package runner_test

import (
	"testing"

	"mlcr/internal/fstartbench"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/pool"
	"mlcr/internal/runner"
)

// benchSpecs is the BenchmarkSweep workload: a HI-Sim multi-policy sweep
// (4 policies × 4 pool sizes on the high-similarity workload), the shape
// of one Fig 11 panel cell.
func benchSpecs() []runner.Spec {
	w := fstartbench.Build(fstartbench.HiSim, 1, fstartbench.Options{})
	mks := []func() (platform.Scheduler, pool.Evictor){
		func() (platform.Scheduler, pool.Evictor) { s := policy.NewLRU(); return s, s.Evictor() },
		func() (platform.Scheduler, pool.Evictor) { s := policy.NewFaasCache(); return s, s.Evictor() },
		func() (platform.Scheduler, pool.Evictor) { s := policy.NewKeepAlive(); return s, s.Evictor() },
		func() (platform.Scheduler, pool.Evictor) { s := policy.NewGreedyMatch(); return s, s.Evictor() },
	}
	var specs []runner.Spec
	for _, poolMB := range []float64{1000, 2000, 3000, 4000} {
		for _, mk := range mks {
			specs = append(specs, runner.Spec{Name: "sweep", Workload: w, PoolCapacityMB: poolMB, New: mk})
		}
	}
	return specs
}

// BenchmarkSweepSequential is the 16-spec HI-Sim sweep at parallelism 1.
func BenchmarkSweepSequential(b *testing.B) {
	specs := benchSpecs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner.Run(specs, runner.Options{Parallelism: 1})
	}
}

// BenchmarkSweepParallel is the same sweep at GOMAXPROCS parallelism;
// compare against BenchmarkSweepSequential for the harness speedup.
func BenchmarkSweepParallel(b *testing.B) {
	specs := benchSpecs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner.Run(specs, runner.Options{})
	}
}
