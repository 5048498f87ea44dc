package runner_test

import (
	"strings"
	"sync/atomic"
	"testing"

	"mlcr/internal/fstartbench"
	"mlcr/internal/obs"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/pool"
	"mlcr/internal/runner"
	"mlcr/internal/workload"
)

// sweepSpecs builds a ≥3-policy × ≥2-workload sweep (the acceptance
// sweep: 4 policies over HI-Sim and Uniform at two pool sizes).
func sweepSpecs(t testing.TB) []runner.Spec {
	t.Helper()
	workloads := []workload.Workload{
		fstartbench.Build(fstartbench.HiSim, 7, fstartbench.Options{Count: 120}),
		fstartbench.Build(fstartbench.Uniform, 7, fstartbench.Options{Count: 120}),
	}
	policies := []struct {
		name string
		mk   func() (platform.Scheduler, pool.Evictor)
	}{
		{"LRU", func() (platform.Scheduler, pool.Evictor) { s := policy.NewLRU(); return s, s.Evictor() }},
		{"FaasCache", func() (platform.Scheduler, pool.Evictor) { s := policy.NewFaasCache(); return s, s.Evictor() }},
		{"KeepAlive", func() (platform.Scheduler, pool.Evictor) { s := policy.NewKeepAlive(); return s, s.Evictor() }},
		{"Greedy-Match", func() (platform.Scheduler, pool.Evictor) { s := policy.NewGreedyMatch(); return s, s.Evictor() }},
	}
	var specs []runner.Spec
	for _, w := range workloads {
		for _, p := range policies {
			for _, poolMB := range []float64{1500, 4000} {
				specs = append(specs, runner.Spec{
					Name:           p.name + "/" + w.Name,
					Workload:       w,
					PoolCapacityMB: poolMB,
					New:            p.mk,
				})
			}
		}
	}
	return specs
}

// TestRunParallelMatchesSequential is the harness determinism test: a
// 4-policy × 2-workload × 2-pool sweep must produce byte-identical
// results at parallelism 1 and at high parallelism.
func TestRunParallelMatchesSequential(t *testing.T) {
	specs := sweepSpecs(t)
	seq := runner.Run(specs, runner.Options{Parallelism: 1})
	par := runner.Run(specs, runner.Options{Parallelism: 8})
	if len(seq) != len(specs) || len(par) != len(specs) {
		t.Fatalf("result lengths %d/%d, want %d", len(seq), len(par), len(specs))
	}
	for i := range specs {
		a, b := runner.Fingerprint(seq[i]), runner.Fingerprint(par[i])
		if a != b {
			t.Fatalf("spec %d (%s): parallel result differs from sequential:\nseq: %.200s\npar: %.200s",
				i, specs[i].Name, a, b)
		}
	}
	// Repeat at default parallelism (GOMAXPROCS) for the same answer.
	def := runner.Run(specs, runner.Options{})
	for i := range specs {
		if runner.Fingerprint(def[i]) != runner.Fingerprint(seq[i]) {
			t.Fatalf("spec %d (%s): default-parallelism result differs", i, specs[i].Name)
		}
	}
}

func TestMapOrderedUnderParallelism(t *testing.T) {
	const n = 200
	got := runner.Map(n, runner.Options{Parallelism: 16}, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("index %d: got %d, want %d", i, v, i*i)
		}
	}
}

func TestMapRunsEveryIndexOnce(t *testing.T) {
	const n = 100
	var calls [n]atomic.Int32
	runner.Map(n, runner.Options{Parallelism: 7}, func(i int) struct{} {
		calls[i].Add(1)
		return struct{}{}
	})
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Fatalf("index %d called %d times", i, c)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if got := runner.Map(0, runner.Options{}, func(int) int { return 1 }); len(got) != 0 {
		t.Fatalf("Map(0) returned %d results", len(got))
	}
}

func TestMapPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic not propagated")
		}
		if !strings.Contains(r.(string), "boom") {
			t.Fatalf("unexpected panic payload %v", r)
		}
	}()
	runner.Map(20, runner.Options{Parallelism: 4}, func(i int) int {
		if i == 11 {
			panic("boom 11")
		}
		return i
	})
}

func TestRunPanicsOnSharedScheduler(t *testing.T) {
	w := fstartbench.Build(fstartbench.Uniform, 1, fstartbench.Options{Count: 20})
	// KeepAlive carries state (its TTL field), so its pointer is tracked
	// by the guard — unlike pointers to zero-size stateless schedulers.
	shared := policy.NewKeepAlive()
	mk := func() (platform.Scheduler, pool.Evictor) { return shared, shared.Evictor() }
	specs := []runner.Spec{
		{Name: "a", Workload: w, PoolCapacityMB: 2000, New: mk},
		{Name: "b", Workload: w, PoolCapacityMB: 2000, New: mk},
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("shared scheduler not detected")
		}
		if !strings.Contains(r.(string), "shared between specs") {
			t.Fatalf("unexpected panic payload %v", r)
		}
	}()
	runner.Run(specs, runner.Options{Parallelism: 1})
}

func TestRunPanicsOnMissingFactory(t *testing.T) {
	w := fstartbench.Build(fstartbench.Uniform, 1, fstartbench.Options{Count: 5})
	defer func() {
		if recover() == nil {
			t.Fatal("missing New factory not detected")
		}
	}()
	runner.Run([]runner.Spec{{Name: "no-factory", Workload: w}}, runner.Options{Parallelism: 1})
}

// TestRunObserverPerRun checks the observer-per-run wiring: every spec
// gets its own bundle, and each records exactly its run's decisions.
func TestRunObserverPerRun(t *testing.T) {
	w := fstartbench.Build(fstartbench.HiSim, 3, fstartbench.Options{Count: 60})
	const n = 4
	observers := make([]*obs.Observer, n)
	specs := make([]runner.Spec, n)
	for i := 0; i < n; i++ {
		i := i
		specs[i] = runner.Spec{
			Name:           "obs",
			Workload:       w,
			PoolCapacityMB: 2000,
			New: func() (platform.Scheduler, pool.Evictor) {
				s := policy.NewGreedyMatch()
				return s, s.Evictor()
			},
			NewObserver: func() *obs.Observer {
				observers[i] = obs.NewObserver()
				return observers[i]
			},
		}
	}
	runner.Run(specs, runner.Options{Parallelism: n})
	for i, o := range observers {
		if o == nil {
			t.Fatalf("spec %d: observer factory never called", i)
		}
		if got := len(obs.Decisions(o.Trace.Events())); got != len(w.Invocations) {
			t.Fatalf("spec %d: audited %d decisions, want %d", i, got, len(w.Invocations))
		}
		if o.Trace.Len() == 0 {
			t.Fatalf("spec %d: no trace events recorded", i)
		}
	}
}
