package obs_test

import (
	"testing"

	"mlcr/internal/experiments"
	"mlcr/internal/fstartbench"
	"mlcr/internal/obs"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/workload"
)

func benchWorkload() (workload.Workload, float64) {
	w := fstartbench.Build(fstartbench.Peak, 7, fstartbench.Options{})
	return w, experiments.CalibrateLoose(w) * 0.5
}

// BenchmarkDisabledTracer measures a full platform replay with a nil
// Observer — the cost every unobserved run pays for the instrumentation
// points. Compare against BenchmarkEnabledTracer and the pre-obs
// scheduling benchmarks in bench_test.go; the disabled path must stay
// within noise (<5%).
func BenchmarkDisabledTracer(b *testing.B) {
	w, poolMB := benchWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		platform.New(platform.Config{PoolCapacityMB: poolMB}, policy.NewGreedyMatch()).Run(w)
	}
}

// BenchmarkEnabledTracer is the same replay with the clock-free pillar,
// the trace, collecting, to quantify the cost of full observability.
func BenchmarkEnabledTracer(b *testing.B) {
	w, poolMB := benchWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		platform.New(platform.Config{PoolCapacityMB: poolMB, Obs: obs.NewObserver()}, policy.NewGreedyMatch()).Run(w)
	}
}
