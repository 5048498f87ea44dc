package cluster

import (
	"testing"
	"time"

	"mlcr/internal/evict"
	"mlcr/internal/fstartbench"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/pool"
	"mlcr/internal/runner"
	"mlcr/internal/workload"
)

func mkCfg(workers int, router string, poolMB float64) Config {
	return Config{
		Workers:        workers,
		PoolCapacityMB: poolMB,
		Router:         router,
		NewScheduler:   func(int) platform.Scheduler { return policy.NewGreedyMatch() },
		NewEvictor:     func(int) pool.Evictor { return evict.NewLRU() },
	}
}

func bench(count int) workload.Workload {
	return fstartbench.Build(fstartbench.Uniform, 1, fstartbench.Options{Count: count})
}

func TestSingleWorkerMatchesPlatform(t *testing.T) {
	w := bench(60)
	cRes := Run(mkCfg(1, "round-robin", 4096), w)
	g := policy.NewGreedyMatch()
	pRes := platform.New(platform.Config{PoolCapacityMB: 4096, Evictor: g.Evictor()}, g).Run(w)
	if cRes.TotalStartup() != pRes.Metrics.TotalStartup() {
		t.Fatalf("1-worker cluster %v != platform %v", cRes.TotalStartup(), pRes.Metrics.TotalStartup())
	}
	if cRes.ColdStarts() != pRes.Metrics.ColdStarts() {
		t.Fatalf("cold starts %d != %d", cRes.ColdStarts(), pRes.Metrics.ColdStarts())
	}
}

func TestAllInvocationsRouted(t *testing.T) {
	w := bench(90)
	for _, r := range []string{"round-robin", "by-function", "least-loaded"} {
		res := Run(mkCfg(3, r, 6000), w)
		total := 0
		for _, n := range res.Routed {
			total += n
		}
		if total != 90 {
			t.Fatalf("%v: routed %d of 90", r, total)
		}
		served := 0
		for _, pr := range res.PerWorker {
			served += pr.Metrics.Count()
		}
		if served != 90 {
			t.Fatalf("%v: served %d of 90", r, served)
		}
	}
}

func TestRoundRobinBalances(t *testing.T) {
	res := Run(mkCfg(3, "round-robin", 6000), bench(90))
	for i, n := range res.Routed {
		if n != 30 {
			t.Fatalf("worker %d routed %d, want 30 (%v)", i, n, res.Routed)
		}
	}
}

func TestByFunctionAffinity(t *testing.T) {
	// With function affinity every worker sees only its own functions,
	// so cross-worker cold starts from container locality vanish:
	// by-function routing must not have more cold starts than
	// round-robin on the same budget.
	w := bench(150)
	rr := Run(mkCfg(3, "round-robin", 3000), w)
	bf := Run(mkCfg(3, "by-function", 3000), w)
	if bf.ColdStarts() > rr.ColdStarts() {
		t.Fatalf("by-function colds %d > round-robin %d", bf.ColdStarts(), rr.ColdStarts())
	}
}

func TestPoolBudgetSplit(t *testing.T) {
	w := bench(60)
	res := Run(mkCfg(2, "round-robin", 1000), w)
	for i, pr := range res.PerWorker {
		if pr.PoolStats.PeakUsedMB > 500+1e-6 {
			t.Fatalf("worker %d pool peak %v exceeds its 500MB slice", i, pr.PoolStats.PeakUsedMB)
		}
	}
}

func TestLeastLoadedAvoidsHotWorker(t *testing.T) {
	// A burst of concurrent invocations: least-loaded must spread them.
	f := fstartbench.ByID(fstartbench.Functions(), 13) // long-running ML fn
	var invs []workload.Invocation
	for i := 0; i < 12; i++ {
		invs = append(invs, workload.Invocation{Seq: i, Fn: f,
			Arrival: time.Duration(i) * 10 * time.Millisecond, Exec: f.Exec})
	}
	w := workload.Workload{Name: "burst", Functions: []*workload.Function{f}, Invocations: invs}
	res := Run(mkCfg(3, "least-loaded", 0), w)
	for i, n := range res.Routed {
		if n == 0 {
			t.Fatalf("worker %d received nothing under least-loaded: %v", i, res.Routed)
		}
	}
}

func TestDeterministic(t *testing.T) {
	w := bench(80)
	a := Run(mkCfg(3, "by-function", 3000), w)
	b := Run(mkCfg(3, "by-function", 3000), w)
	if a.TotalStartup() != b.TotalStartup() || a.ColdStarts() != b.ColdStarts() {
		t.Fatal("cluster run not deterministic")
	}
}

func TestConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"no workers":   {Workers: 0, NewScheduler: func(int) platform.Scheduler { return policy.NewLRU() }},
		"no scheduler": {Workers: 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			Run(cfg, bench(5))
		}()
	}
}

// TestWorkloadValidation: the catalogue is checked once by Run itself,
// referenced or not; arrival order and nil functions are checked per
// partition by the worker that replays it, and runner.Map re-raises
// that worker's panic.
func TestWorkloadValidation(t *testing.T) {
	fns := fstartbench.Functions()
	inv := func(fn *workload.Function, at time.Duration) workload.Invocation {
		return workload.Invocation{Fn: fn, Arrival: at, Exec: time.Second}
	}
	noID, noMem := *fns[1], *fns[2]
	noID.ID, noMem.MemoryMB = 0, 0
	ok := []workload.Invocation{inv(fns[0], 0), inv(fns[0], time.Second)}
	for name, c := range map[string]struct {
		w    workload.Workload
		want string
	}{
		"unreferenced function without ID": {
			workload.Workload{Name: "bad", Functions: []*workload.Function{fns[0], &noID}, Invocations: ok},
			`cluster: workload "bad": function "` + noID.Name + `": ID must be positive, got 0`,
		},
		"unreferenced function without memory": {
			workload.Workload{Name: "bad", Functions: []*workload.Function{fns[0], &noMem}, Invocations: ok},
			`cluster: workload "bad": function "` + noMem.Name + `": MemoryMB must be positive, got 0`,
		},
		// Round-robin over two workers: worker 0 replays stream
		// positions 0 and 2, worker 1 position 1.
		"partition arrivals go backwards": {
			workload.Workload{Name: "bad", Functions: fns, Invocations: []workload.Invocation{
				inv(fns[0], 2*time.Second), inv(fns[0], 2*time.Second), inv(fns[0], time.Second)}},
			`platform: workload "bad/w0": invocation 1 arrives at 1s before invocation 0 at 2s`,
		},
		"nil function": {
			workload.Workload{Name: "bad", Functions: fns, Invocations: []workload.Invocation{
				inv(fns[0], 0), inv(nil, time.Second)}},
			`platform: workload "bad/w1": invocation 0 has nil function`,
		},
	} {
		func() {
			defer func() {
				if got := recover(); got != c.want {
					t.Errorf("%s: panic %q, want %q", name, got, c.want)
				}
			}()
			Run(mkCfg(2, "round-robin", 4096), c.w)
		}()
	}
}

func TestLoadEstimator(t *testing.T) {
	cases := []struct {
		name           string
		busyUntil, now time.Duration
		want           time.Duration
	}{
		{"idle worker", 0, time.Second, 0},
		{"just freed", time.Second, time.Second, 0},
		{"freed in the past", time.Second, 2 * time.Second, 0},
		{"busy", 3 * time.Second, time.Second, 2 * time.Second},
		{"busy from now", 500 * time.Millisecond, 0, 500 * time.Millisecond},
	}
	for _, c := range cases {
		if got := load(c.busyUntil, c.now); got != c.want {
			t.Errorf("%s: load(%v, %v) = %v, want %v", c.name, c.busyUntil, c.now, got, c.want)
		}
	}
}

func TestLeastLoadedBusyUntilAccumulates(t *testing.T) {
	// Two simultaneous long jobs on a 2-worker cluster must go to
	// different workers: after the first lands on worker 0, its busy-until
	// estimate makes worker 1 strictly less loaded.
	f := fstartbench.ByID(fstartbench.Functions(), 13)
	w := workload.Workload{Name: "pair", Functions: []*workload.Function{f},
		Invocations: []workload.Invocation{
			{Seq: 0, Fn: f, Arrival: 0, Exec: f.Exec},
			{Seq: 1, Fn: f, Arrival: 0, Exec: f.Exec},
		}}
	r := MustNewRouter("least-loaded", RouterConfig{Workers: 2})
	targets := routeTargets(r, w, 2, 1, nil)
	parts, _ := partition(w, targets, 2)
	if len(parts[0]) != 1 || len(parts[1]) != 1 {
		t.Fatalf("simultaneous jobs not spread: %d/%d", len(parts[0]), len(parts[1]))
	}
}

func TestPoolBudgetSplitUnlimited(t *testing.T) {
	// An unlimited cluster budget must stay unlimited per worker, not
	// become 0/NewWorkers = 0 (which platform would read as unlimited
	// anyway) nor go negative.
	w := bench(40)
	res := Run(mkCfg(2, "round-robin", 0), w)
	for i, pr := range res.PerWorker {
		if pr.PoolStats.Rejections != 0 {
			t.Fatalf("worker %d rejected %d admissions under an unlimited pool", i, pr.PoolStats.Rejections)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	// The acceptance check: an 8-worker cluster run must be byte-identical
	// between sequential and full parallelism, for every routing policy.
	w := bench(160)
	for _, routing := range []string{"round-robin", "by-function", "least-loaded"} {
		seqCfg := mkCfg(8, routing, 8000)
		seqCfg.Parallelism = 1
		seq := Run(seqCfg, w)
		for _, par := range []int{4, 0} {
			parCfg := mkCfg(8, routing, 8000)
			parCfg.Parallelism = par
			got := Run(parCfg, w)
			if len(got.PerWorker) != len(seq.PerWorker) {
				t.Fatalf("%v: worker count %d != %d", routing, len(got.PerWorker), len(seq.PerWorker))
			}
			for i := range seq.PerWorker {
				if runner.Fingerprint(seq.PerWorker[i]) != runner.Fingerprint(got.PerWorker[i]) {
					t.Fatalf("%v: worker %d diverged at parallelism %d", routing, i, par)
				}
			}
			for i := range seq.Routed {
				if seq.Routed[i] != got.Routed[i] {
					t.Fatalf("%v: routing diverged at worker %d", routing, i)
				}
			}
		}
	}
}

func TestNamedEvictorConfig(t *testing.T) {
	// Naming a registry policy must behave exactly like supplying an
	// equivalent NewEvictor factory.
	w := bench(90)
	named := mkCfg(3, "round-robin", 3000)
	named.NewEvictor = nil
	named.Evictor = "lfu"
	named.EvictorSeed = 7
	manual := mkCfg(3, "round-robin", 3000)
	manual.NewEvictor = func(worker int) pool.Evictor { return evict.MustNew("lfu", 7+int64(worker)) }
	a := Run(named, w)
	b := Run(manual, w)
	for i := range a.PerWorker {
		if runner.Fingerprint(a.PerWorker[i]) != runner.Fingerprint(b.PerWorker[i]) {
			t.Fatalf("worker %d: named-evictor run diverged from factory run", i)
		}
	}

	// Per-worker seeding: each worker's random policy draws from its own
	// stream, and the whole cluster run is deterministic.
	rnd := mkCfg(3, "round-robin", 1500)
	rnd.NewEvictor = nil
	rnd.Evictor = "random"
	r1 := Run(rnd, w)
	r2 := Run(rnd, w)
	for i := range r1.PerWorker {
		if runner.Fingerprint(r1.PerWorker[i]) != runner.Fingerprint(r2.PerWorker[i]) {
			t.Fatalf("worker %d: random evictor not reproducible across runs", i)
		}
	}
}

func TestUnknownEvictorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown Evictor name did not panic")
		}
	}()
	cfg := mkCfg(2, "round-robin", 1000)
	cfg.NewEvictor = nil
	cfg.Evictor = "nope"
	Run(cfg, bench(10))
}
