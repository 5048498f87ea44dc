package mlcr_test

import (
	"math/rand"
	"runtime"
	"testing"

	"mlcr/internal/mlcr"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/pool"
	"mlcr/internal/workload"

	"mlcr/internal/fstartbench"
)

// simCorePoolMB is BenchmarkSimCore's warm-pool capacity: large enough
// for healthy reuse, small enough that the per-invocation pool scan
// stays bounded and the measurement tracks the engine+platform event
// path rather than policy cost.
const simCorePoolMB = 4096

// simCoreWorkload builds an Azure-derived workload with exactly n
// invocations: the 13-function FStartBench catalog is cloned (fresh
// IDs) until the power-law invocation counts cover n, then the merged
// arrival sequence is truncated to the first n invocations. Everything
// is drawn from one fixed seed, so the workload for a given n is
// identical across trees and runs.
func simCoreWorkload(n int) workload.Workload {
	// ~9 invocations/function on average under AzureMix's calibrated
	// mixture; 1/4 headroom avoids a rebuild in the common case.
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
		w := mix.Build("simcore", fns, 0.1)
		if len(w.Invocations) >= n {
			w.Invocations = w.Invocations[:n]
			return w
		}
		clones *= 2
	}
}

// simCoreSched is the benchmark's minimal deterministic scheduler:
// reuse the first (deepest-level) index candidate, else cold-start.
// The candidate buffer is reused so scheduling itself is
// allocation-free and the benchmark isolates the simulator core.
type simCoreSched struct {
	buf []pool.MatchCandidate
}

func (*simCoreSched) Name() string { return "simcore-first-fit" }

func (s *simCoreSched) Schedule(env platform.Env, inv *workload.Invocation) int {
	s.buf = env.Pool.AppendMatches(s.buf[:0], inv.Fn.Image)
	if len(s.buf) == 0 {
		return platform.ColdStart
	}
	return s.buf[0].C.ID
}

func (*simCoreSched) OnResult(platform.Env, *workload.Invocation, platform.Result) {}

// BenchmarkSimCore drives the full simulator core — engine, platform,
// pool index, multi-level matching — through b.N invocations of an
// Azure-derived trace and reports per-invocation cost plus throughput.
// Run it at trace scale with a fixed iteration count, e.g.
//
//	go test -run '^$' -bench BenchmarkSimCore -benchmem -benchtime 1000000x .
//
// so b.N is the invocation count (1M+) and ns/op is the per-invocation
// cost. Steady state allocates nothing per invocation in the
// engine+platform event path when no tracer is attached; residual
// allocs/op come from cold-started containers and amortized growth of
// the metrics buffer, both well under one per invocation.
func BenchmarkSimCore(b *testing.B) {
	w := simCoreWorkload(b.N)
	p := platform.New(platform.Config{PoolCapacityMB: simCorePoolMB}, &simCoreSched{})
	b.ReportAllocs()
	b.ResetTimer()
	res := p.Run(w)
	b.StopTimer()
	if got := res.Metrics.Count(); got != b.N {
		b.Fatalf("simulated %d invocations, want %d", got, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "inv/s")
	b.ReportMetric(100*float64(res.ContainersCreated)/float64(b.N), "cold-%")
}

// TestSimCoreAllocsPerInvocation pins what the simulator core and every
// production scheduler's decision allocate per extra invocation: it
// replays the first n and then all 2n invocations of one trace (same
// catalog, so set-up cancels) and takes the difference in heap objects
// less the difference in cold starts. A cold start allocates its
// container by definition, and how many there are is the scheduler's
// business (Same-Function cold-starts almost every invocation of this
// trace); what is left is amortized buffer growth, well under 0.1 per
// invocation. An allocation on every arrival or decision adds a whole
// one.
func TestSimCoreAllocsPerInvocation(t *testing.T) {
	const n = 20000
	w := simCoreWorkload(2 * n)
	type sched struct {
		name string
		new  func() platform.Scheduler
	}
	scheds := []sched{
		{"simcore", func() platform.Scheduler { return &simCoreSched{} }},
		{"MLCR (untrained, inference)", func() platform.Scheduler { return mlcr.New(mlcr.Config{}) }},
	}
	for _, name := range policy.GridSchedulers() {
		scheds = append(scheds, sched{name, func() platform.Scheduler { s, _ := policy.NewByName(name, 1); return s }})
	}
	for _, sc := range scheds {
		// mallocs returns the heap objects and the cold starts of a run
		// over the first count invocations.
		mallocs := func(count int) (objects, cold float64) {
			part := w
			part.Invocations = w.Invocations[:count]
			p := platform.New(platform.Config{PoolCapacityMB: simCorePoolMB}, sc.new())
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res := p.Run(part)
			runtime.ReadMemStats(&after)
			if got := res.Metrics.Count(); got != count {
				t.Fatalf("%s: simulated %d invocations, want %d", sc.name, got, count)
			}
			return float64(after.Mallocs - before.Mallocs), float64(res.ContainersCreated)
		}
		smallObj, smallCold := mallocs(n)
		largeObj, largeCold := mallocs(2 * n)
		objects, cold := (largeObj-smallObj)/n, (largeCold-smallCold)/n
		t.Logf("%s: %.3f allocations and %.3f cold starts per extra invocation", sc.name, objects, cold)
		if objects-cold > 0.1 {
			t.Errorf("%s: %.3f allocations beyond cold starts per extra invocation (%.3f objects, %.3f cold starts), want <= 0.1",
				sc.name, objects-cold, objects, cold)
		}
	}
}
