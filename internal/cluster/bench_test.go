package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"mlcr/internal/fstartbench"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/workload"
)

// azureTrace builds the n-invocation Azure-derived scale trace: the
// 13-function FStartBench catalog cloned (re-numbered IDs) until
// workload.AzureMix's power-law invocation counts cover n, truncated
// to exactly n — the same recipe as BenchmarkSimCore's trace (root
// package), so routing throughput here is comparable to
// simulator-core throughput there. Seeded, fully deterministic.
func azureTrace(n int) workload.Workload {
	fnsPer := len(fstartbench.Functions())
	clones := n/(fnsPer*7) + 1
	for {
		rng := rand.New(rand.NewSource(1))
		var fns []*workload.Function
		for k := 0; k < clones; k++ {
			for _, f := range fstartbench.Functions() {
				f.ID = k*fnsPer + f.ID
				fns = append(fns, f)
			}
		}
		mix := workload.AzureMix{Rng: rng}
		w := mix.Build("cluster-scale", fns, 0.1)
		if len(w.Invocations) >= n {
			w.Invocations = w.Invocations[:n]
			return w
		}
		clones *= 2
	}
}

// BenchmarkClusterRoute measures pure routing throughput — decision
// loop plus counting-pre-pass partition, no worker simulation — for
// each registered router at 1000 workers. One b.N unit = one full pass
// over the trace; per-invocation cost is reported as route-ns/inv.
//
//	go test -bench ClusterRoute -benchtime 3x ./internal/cluster/
func BenchmarkClusterRoute(b *testing.B) {
	const workers = 1000
	w := azureTrace(200000)
	for _, name := range RouterNames() {
		b.Run(fmt.Sprintf("%s/w%d", name, workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				routed := Route(name, RouterConfig{Workers: workers, Seed: 1}, w, 1, nil)
				total := 0
				for _, c := range routed {
					total += c
				}
				if total != len(w.Invocations) {
					b.Fatalf("routed %d of %d", total, len(w.Invocations))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(w.Invocations)), "route-ns/inv")
		})
	}
}

// BenchmarkClusterRun replays the full cluster path — routing,
// partition and 1000 worker simulations — under the p2c router.
func BenchmarkClusterRun(b *testing.B) {
	const workers = 1000
	w := azureTrace(200000)
	cfg := Config{
		Workers:        workers,
		PoolCapacityMB: workers * 256,
		Router:         "p2c",
		RouterSeed:     1,
		NewScheduler:   func(int) platform.Scheduler { return policy.NewGreedyMatch() },
	}
	b.ReportAllocs()
	b.ResetTimer() // the trace build is several laps long
	for i := 0; i < b.N; i++ {
		res := Run(cfg, w)
		served := 0
		for _, pr := range res.PerWorker {
			served += pr.Metrics.Count()
		}
		if served != len(w.Invocations) {
			b.Fatalf("served %d of %d", served, len(w.Invocations))
		}
	}
	b.ReportMetric(float64(b.N*len(w.Invocations))/b.Elapsed().Seconds(), "inv/s")
}
