package runner_test

import (
	"strings"
	"sync/atomic"
	"testing"

	"mlcr/internal/fstartbench"
	"mlcr/internal/obs"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/runner"
	"mlcr/internal/workload"
)

// sweepRun is one platform run of the test sweep.
type sweepRun struct {
	name   string
	w      workload.Workload
	poolMB float64
	mk     func() platform.Scheduler
}

// sweepRuns builds a ≥3-policy × ≥2-workload sweep (the acceptance
// sweep: 4 policies over HI-Sim and Uniform at two pool sizes).
func sweepRuns(t testing.TB) []sweepRun {
	t.Helper()
	workloads := []workload.Workload{
		fstartbench.Build(fstartbench.HiSim, 7, fstartbench.Options{Count: 120}),
		fstartbench.Build(fstartbench.Uniform, 7, fstartbench.Options{Count: 120}),
	}
	policies := []struct {
		name string
		mk   func() platform.Scheduler
	}{
		{"LRU", func() platform.Scheduler { return policy.NewLRU() }},
		{"FaasCache", func() platform.Scheduler { return policy.NewFaasCache() }},
		{"KeepAlive", func() platform.Scheduler { return policy.NewKeepAlive() }},
		{"Greedy-Match", func() platform.Scheduler { return policy.NewGreedyMatch() }},
	}
	var runs []sweepRun
	for _, w := range workloads {
		for _, p := range policies {
			for _, poolMB := range []float64{1500, 4000} {
				runs = append(runs, sweepRun{p.name + "/" + w.Name, w, poolMB, p.mk})
			}
		}
	}
	return runs
}

// runSweep replays every run through runner.Map, each building its
// scheduler, its platform and — when observe is set — its observer
// inside the job.
func runSweep(runs []sweepRun, parallelism int, observe func(i int) *obs.Observer) []*platform.RunResult {
	return runner.Map(len(runs), runner.Options{Parallelism: parallelism}, func(i int) *platform.RunResult {
		r := runs[i]
		cfg := platform.Config{PoolCapacityMB: r.poolMB}
		if observe != nil {
			cfg.Obs = observe(i)
		}
		return platform.New(cfg, r.mk()).Run(r.w)
	})
}

// TestRunParallelMatchesSequential is the harness determinism test: a
// 4-policy × 2-workload × 2-pool sweep must produce byte-identical
// results at parallelism 1 and at high parallelism.
func TestRunParallelMatchesSequential(t *testing.T) {
	runs := sweepRuns(t)
	seq := runSweep(runs, 1, nil)
	par := runSweep(runs, 8, nil)
	if len(seq) != len(runs) || len(par) != len(runs) {
		t.Fatalf("result lengths %d/%d, want %d", len(seq), len(par), len(runs))
	}
	for i := range runs {
		a, b := runner.Fingerprint(seq[i]), runner.Fingerprint(par[i])
		if a != b {
			t.Fatalf("run %d (%s): parallel result differs from sequential:\nseq: %.200s\npar: %.200s",
				i, runs[i].name, a, b)
		}
	}
	// Repeat at default parallelism (GOMAXPROCS) for the same answer.
	def := runSweep(runs, 0, nil)
	for i := range runs {
		if runner.Fingerprint(def[i]) != runner.Fingerprint(seq[i]) {
			t.Fatalf("run %d (%s): default-parallelism result differs", i, runs[i].name)
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
	// KeepAlive carries state (its TTL field), so its pointer is tracked
	// by the guard — unlike pointers to zero-size stateless schedulers.
	shared := policy.NewKeepAlive()
	var g runner.Guard
	g.Claim(policy.NewGreedyMatch(), 0, "stateless")
	g.Claim(policy.NewGreedyMatch(), 1, "stateless")
	g.Claim(shared, 2, "a")
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("shared scheduler not detected")
		}
		if !strings.Contains(r.(string), "shared between specs 2 and 3") {
			t.Fatalf("unexpected panic payload %v", r)
		}
	}()
	g.Claim(shared, 3, "b")
}

// TestRunObserverPerRun checks the observer-per-run wiring: every run
// gets its own bundle, and each records exactly its run's decisions.
func TestRunObserverPerRun(t *testing.T) {
	w := fstartbench.Build(fstartbench.HiSim, 3, fstartbench.Options{Count: 60})
	const n = 4
	observers := make([]*obs.Observer, n)
	runs := make([]sweepRun, n)
	for i := range runs {
		runs[i] = sweepRun{"obs", w, 2000, func() platform.Scheduler { return policy.NewGreedyMatch() }}
	}
	runSweep(runs, n, func(i int) *obs.Observer {
		observers[i] = obs.NewObserver()
		return observers[i]
	})
	for i, o := range observers {
		if o == nil {
			t.Fatalf("run %d: observer never built", i)
		}
		if got := len(obs.Decisions(o.Trace.Events())); got != len(w.Invocations) {
			t.Fatalf("run %d: audited %d decisions, want %d", i, got, len(w.Invocations))
		}
		if o.Trace.Len() == 0 {
			t.Fatalf("run %d: no trace events recorded", i)
		}
	}
}
