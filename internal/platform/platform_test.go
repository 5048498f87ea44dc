package platform

import (
	"testing"
	"time"

	"mlcr/internal/container"
	"mlcr/internal/core"
	"mlcr/internal/evict"
	"mlcr/internal/image"
	"mlcr/internal/obs"
	"mlcr/internal/pool"
	"mlcr/internal/registry"
	"mlcr/internal/workload"
)

// fn builds a simple test function.
func fn(id int, os, lang, rt string, mem float64) *workload.Function {
	ps := []image.Package{{Name: os, Version: "1", Level: image.OS, SizeMB: 10,
		Pull: 100 * time.Millisecond, Install: 10 * time.Millisecond}}
	if lang != "" {
		ps = append(ps, image.Package{Name: lang, Version: "1", Level: image.Language, SizeMB: 40,
			Pull: 400 * time.Millisecond, Install: 40 * time.Millisecond})
	}
	if rt != "" {
		ps = append(ps, image.Package{Name: rt, Version: "1", Level: image.Runtime, SizeMB: 20,
			Pull: 200 * time.Millisecond, Install: 20 * time.Millisecond})
	}
	return &workload.Function{
		ID: id, Name: os + lang + rt, Image: image.NewImage("img", ps...),
		Create: 250 * time.Millisecond, Clean: 30 * time.Millisecond,
		RuntimeInit: 120 * time.Millisecond, FunctionInit: 20 * time.Millisecond,
		Exec: 500 * time.Millisecond, MemoryMB: mem,
	}
}

func mkWorkload(fns []*workload.Function, gap time.Duration, n int) workload.Workload {
	invs := make([]workload.Invocation, n)
	for i := 0; i < n; i++ {
		f := fns[i%len(fns)]
		invs[i] = workload.Invocation{Seq: i, Fn: f, Arrival: time.Duration(i+1) * gap, Exec: f.Exec}
	}
	return workload.Workload{Name: "test", Functions: fns, Invocations: invs}
}

// alwaysCold never reuses anything.
type alwaysCold struct{}

func (alwaysCold) Name() string                               { return "cold" }
func (alwaysCold) Schedule(Env, *workload.Invocation) int     { return ColdStart }
func (alwaysCold) OnResult(Env, *workload.Invocation, Result) {}

// bestMatch reuses the best-matching idle container (greedy oracle for
// tests, independent of the policy package to avoid import cycles).
type bestMatch struct{}

func (bestMatch) Name() string { return "best-match" }
func (bestMatch) Schedule(env Env, inv *workload.Invocation) int {
	best, bestLv := ColdStart, core.NoMatch
	for _, c := range env.Pool.Idle() {
		if lv := core.Match(inv.Fn.Image, c.Image); lv > bestLv {
			best, bestLv = c.ID, lv
		}
	}
	return best
}
func (bestMatch) OnResult(Env, *workload.Invocation, Result) {}

func TestAllColdStarts(t *testing.T) {
	f := fn(1, "debian", "python", "flask", 128)
	w := mkWorkload([]*workload.Function{f}, 10*time.Second, 5)
	res := New(Config{PoolCapacityMB: 1000}, alwaysCold{}).Run(w)
	if res.Metrics.ColdStarts() != 5 {
		t.Fatalf("cold starts = %d, want 5", res.Metrics.ColdStarts())
	}
	if res.ContainersCreated != 5 {
		t.Fatalf("containers created = %d, want 5", res.ContainersCreated)
	}
	want := 5 * f.ColdStartTime()
	if res.Metrics.TotalStartup() != want {
		t.Fatalf("total startup = %v, want %v", res.Metrics.TotalStartup(), want)
	}
}

func TestWarmReuseSameFunction(t *testing.T) {
	f := fn(1, "debian", "python", "flask", 128)
	// Gaps long enough that each invocation completes before the next.
	w := mkWorkload([]*workload.Function{f}, 10*time.Second, 5)
	res := New(Config{PoolCapacityMB: 1000}, bestMatch{}).Run(w)
	if res.Metrics.ColdStarts() != 1 {
		t.Fatalf("cold starts = %d, want 1", res.Metrics.ColdStarts())
	}
	if res.ContainersCreated != 1 {
		t.Fatalf("containers created = %d, want 1", res.ContainersCreated)
	}
	// 4 warm L3 same-function starts: only function init.
	want := f.ColdStartTime() + 4*f.FunctionInit
	if res.Metrics.TotalStartup() != want {
		t.Fatalf("total startup = %v, want %v", res.Metrics.TotalStartup(), want)
	}
	lv := res.Metrics.ByLevel()
	if lv[3] != 4 {
		t.Fatalf("L3 warm starts = %d, want 4", lv[3])
	}
}

func TestBusyContainerNotReusable(t *testing.T) {
	f := fn(1, "debian", "python", "flask", 128)
	// Second invocation arrives while the first is still running
	// (arrival gap 1ms << startup+exec), so it must cold-start.
	w := mkWorkload([]*workload.Function{f}, time.Millisecond, 2)
	res := New(Config{PoolCapacityMB: 1000}, bestMatch{}).Run(w)
	if res.Metrics.ColdStarts() != 2 {
		t.Fatalf("cold starts = %d, want 2 (container busy)", res.Metrics.ColdStarts())
	}
}

func TestCrossFunctionReuseChargesCleaner(t *testing.T) {
	f1 := fn(1, "debian", "python", "flask", 128)
	f2 := fn(2, "debian", "python", "numpy", 128)
	w := mkWorkload([]*workload.Function{f1, f2}, 10*time.Second, 2)
	res := New(Config{PoolCapacityMB: 1000}, bestMatch{}).Run(w)
	if res.Metrics.ColdStarts() != 1 {
		t.Fatalf("cold starts = %d, want 1", res.Metrics.ColdStarts())
	}
	if res.CleanerOps.Repacks != 1 {
		t.Fatalf("repacks = %d, want 1", res.CleanerOps.Repacks)
	}
	// F2 reused F1's container at L2: clean + pull/install runtime + runtime init + fn init.
	wantF2 := f2.Clean + f2.Image.PullTime(image.Runtime) + f2.Image.InstallTime(image.Runtime) +
		f2.RuntimeInit + f2.FunctionInit
	got := res.Metrics.Samples()[1].Startup
	if got != wantF2 {
		t.Fatalf("F2 startup = %v, want %v", got, wantF2)
	}
}

func TestPeakRunningMemory(t *testing.T) {
	f := fn(1, "debian", "python", "flask", 100)
	// Three invocations arrive within 1ms: all run concurrently.
	w := mkWorkload([]*workload.Function{f}, time.Millisecond, 3)
	res := New(Config{PoolCapacityMB: 1000}, alwaysCold{}).Run(w)
	if res.PeakRunningMB != 300 {
		t.Fatalf("peak running = %v, want 300", res.PeakRunningMB)
	}
}

func TestPoolCapacityEnforced(t *testing.T) {
	f1 := fn(1, "debian", "python", "flask", 100)
	f2 := fn(2, "alpine", "node", "express", 100)
	f3 := fn(3, "centos", "go", "gin", 100)
	// Pool fits only one container; sequential invocations of different
	// functions evict each other (LRU).
	w := mkWorkload([]*workload.Function{f1, f2, f3}, 10*time.Second, 6)
	res := New(Config{PoolCapacityMB: 100}, bestMatch{}).Run(w)
	if res.Metrics.ColdStarts() != 6 {
		t.Fatalf("cold starts = %d, want 6 (no OS overlap, pool of 1)", res.Metrics.ColdStarts())
	}
	if res.PoolStats.Evictions != 5 {
		t.Fatalf("evictions = %d, want 5", res.PoolStats.Evictions)
	}
	if res.PoolStats.PeakUsedMB != 100 {
		t.Fatalf("peak pool = %v, want 100", res.PoolStats.PeakUsedMB)
	}
}

func TestKeepAliveTTLExpiry(t *testing.T) {
	f := fn(1, "debian", "python", "flask", 128)
	// Two invocations 11 minutes apart: the warm container expires.
	fns := []*workload.Function{f}
	w := workload.Workload{Name: "ttl", Functions: fns, Invocations: []workload.Invocation{
		{Seq: 0, Fn: f, Arrival: time.Second, Exec: f.Exec},
		{Seq: 1, Fn: f, Arrival: 15 * time.Minute, Exec: f.Exec},
	}}
	res := New(Config{PoolCapacityMB: 1000, Evictor: evict.KeepAlive{Alive: 10 * time.Minute}}, bestMatch{}).Run(w)
	if res.Metrics.ColdStarts() != 2 {
		t.Fatalf("cold starts = %d, want 2 (expired)", res.Metrics.ColdStarts())
	}
	if res.PoolStats.Expirations != 1 {
		t.Fatalf("expirations = %d, want 1", res.PoolStats.Expirations)
	}
}

func TestDeterminism(t *testing.T) {
	f1 := fn(1, "debian", "python", "flask", 128)
	f2 := fn(2, "debian", "python", "numpy", 96)
	w := mkWorkload([]*workload.Function{f1, f2}, 700*time.Millisecond, 40)
	a := New(Config{PoolCapacityMB: 300}, bestMatch{}).Run(w)
	b := New(Config{PoolCapacityMB: 300}, bestMatch{}).Run(w)
	if a.Metrics.TotalStartup() != b.Metrics.TotalStartup() ||
		a.Metrics.ColdStarts() != b.Metrics.ColdStarts() ||
		a.PoolStats != b.PoolStats {
		t.Fatal("identical runs diverged")
	}
}

// checkFallback asserts the policy-error contract on a finished run: the
// bad choices were counted, every invocation was still served, and the
// cold/warm split adds up.
func checkFallback(t *testing.T, res *RunResult, n, wantCold int) {
	t.Helper()
	if res.PolicyErrors != 1 {
		t.Fatalf("PolicyErrors = %d, want 1", res.PolicyErrors)
	}
	m := &res.Metrics
	if m.Count() != n || m.ColdStarts()+m.WarmStarts() != n {
		t.Fatalf("served %d (cold %d + warm %d), want %d", m.Count(), m.ColdStarts(), m.WarmStarts(), n)
	}
	if m.ColdStarts() != wantCold || res.ContainersCreated != wantCold {
		t.Fatalf("cold starts = %d, created = %d, want %d", m.ColdStarts(), res.ContainersCreated, wantCold)
	}
}

// TestBadIDFallsBackToColdStart: a choice naming no pooled container is
// served as a cold start and counted; the run completes, and OnResult
// sees the realised cold start.
func TestBadIDFallsBackToColdStart(t *testing.T) {
	f := fn(1, "debian", "python", "flask", 128)
	w := mkWorkload([]*workload.Function{f}, 10*time.Second, 3)
	var seen []Result
	bad := &spySched{
		schedule: func(env Env, inv *workload.Invocation) int {
			if inv.Seq == 1 {
				return 42
			}
			return bestMatch{}.Schedule(env, inv)
		},
		onResult: func(r Result) { seen = append(seen, r) },
	}
	o := &obs.Observer{Audit: &obs.Audit{}}
	res := New(Config{PoolCapacityMB: 1000, Obs: o}, bad).Run(w)
	checkFallback(t, res, 3, 2)
	// The audit keeps the policy's raw choice beside what was served.
	if d := o.Audit.Decisions()[1]; d.Chosen != 42 || !d.Cold || d.Level != 0 {
		t.Fatalf("audit record %+v, want chosen 42 served cold", d)
	}
	if r := seen[1]; !r.Cold || r.Level != core.NoMatch || r.Startup.Total() != f.ColdStartTime() {
		t.Fatalf("OnResult saw %+v for the bad choice, want the realised cold start", r)
	}
	if seen[2].Cold {
		t.Fatal("the invocation after the bad choice must reuse the untouched pooled container")
	}
}

// TestNoMatchReuseFallsBackToColdStart: choosing a pooled container
// whose image matches at no level leaves it in the pool and cold-starts.
func TestNoMatchReuseFallsBackToColdStart(t *testing.T) {
	f1 := fn(1, "debian", "python", "flask", 100)
	f2 := fn(2, "alpine", "node", "express", 100)
	w := mkWorkload([]*workload.Function{f1, f2}, 10*time.Second, 2)
	bad := schedulerFunc(func(env Env, inv *workload.Invocation) int {
		if idle := env.Pool.Idle(); len(idle) > 0 {
			return idle[0].ID // OS mismatch for f2
		}
		return ColdStart
	})
	p := New(Config{PoolCapacityMB: 1000}, bad)
	checkFallback(t, p.Run(w), 2, 2)
	if p.Pool().Len() != 2 {
		t.Fatalf("pool holds %d containers, want f1's untouched one plus f2's", p.Pool().Len())
	}
}

// spySched is a scheduler assembled from closures, OnResult included.
type spySched struct {
	schedule func(Env, *workload.Invocation) int
	onResult func(Result)
}

func (*spySched) Name() string                                       { return "spy" }
func (s *spySched) Schedule(e Env, i *workload.Invocation) int       { return s.schedule(e, i) }
func (s *spySched) OnResult(_ Env, _ *workload.Invocation, r Result) { s.onResult(r) }

// TestApply exercises the shared choice-to-container step alone.
func TestApply(t *testing.T) {
	target := fn(1, "debian", "python", "flask", 128)
	pooled := map[string]*workload.Function{
		"L1":       fn(2, "debian", "node", "express", 64),
		"L2":       fn(3, "debian", "python", "numpy", 64),
		"L3":       target, // same function: an exact re-hit, nothing to re-pack
		"no-match": fn(5, "alpine", "python", "flask", 64),
	}
	const now = time.Minute
	for _, tc := range []struct {
		name     string
		pooled   string // which function's container sits in the pool
		choice   int    // 0 = the pooled container's ID
		lvl      core.MatchLevel
		honoured bool
		repacks  int
	}{
		{name: "cold start", pooled: "L3", choice: ColdStart, lvl: core.NoMatch, honoured: true},
		{name: "warm L1", pooled: "L1", lvl: core.MatchL1, honoured: true, repacks: 1},
		{name: "warm L2", pooled: "L2", lvl: core.MatchL2, honoured: true, repacks: 1},
		{name: "warm L3", pooled: "L3", lvl: core.MatchL3, honoured: true},
		{name: "unknown ID", pooled: "L3", choice: 42, lvl: core.NoMatch},
		{name: "negative ID", pooled: "L3", choice: -7, lvl: core.NoMatch},
		{name: "pooled container, no match", pooled: "no-match", lvl: core.NoMatch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl := pool.New(1000, evict.NewLRU())
			from := pooled[tc.pooled]
			idle, _ := container.NewCold(7, &workload.Invocation{Fn: from}, 0)
			idle.Complete(time.Second)
			pl.Add(idle, from.ColdStartTime(), time.Second)
			if tc.choice == 0 {
				tc.choice = idle.ID
			}
			want, _ := container.EstimateFor(target, idle)
			cl := &container.Cleaner{}
			ids := 0
			inv := &workload.Invocation{Fn: target, Arrival: now, Exec: target.Exec}
			c, s, lvl, honoured := Apply(pl, cl, inv, now, tc.choice, func() int { ids++; return 99 })
			if lvl != tc.lvl || honoured != tc.honoured || s.Cold != (tc.lvl == core.NoMatch) {
				t.Fatalf("level %v honoured %v cold %v, want level %v honoured %v", lvl, honoured, s.Cold, tc.lvl, tc.honoured)
			}
			if got := cl.Ops().Repacks; got != tc.repacks {
				t.Fatalf("cleaner repacks = %d, want %d", got, tc.repacks)
			}
			if s.Cold {
				// Cold — asked for or fallen back to: a fresh sandbox at
				// the full cold cost, the pool exactly as it was.
				if c.ID != 99 || ids != 1 || s.Total() != target.ColdStartTime() {
					t.Fatalf("cold start: container %d, %d IDs drawn, startup %v", c.ID, ids, s.Total())
				}
				if pl.Len() != 1 || pl.UsedMB() != from.MemoryMB || pl.Get(idle.ID) != idle {
					t.Fatalf("pool disturbed: len %d, used %v MB", pl.Len(), pl.UsedMB())
				}
				return
			}
			if c != idle || ids != 0 || pl.Len() != 0 || pl.UsedMB() != 0 {
				t.Fatalf("warm start: container %d, %d IDs drawn, pool len %d", c.ID, ids, pl.Len())
			}
			if s != want {
				t.Fatalf("startup %+v, want the reuse estimate %+v", s, want)
			}
		})
	}
}

// schedulerFunc adapts a function to platform.Scheduler.
type schedulerFunc func(Env, *workload.Invocation) int

func (schedulerFunc) Name() string                                 { return "func" }
func (s schedulerFunc) Schedule(e Env, i *workload.Invocation) int { return s(e, i) }
func (schedulerFunc) OnResult(Env, *workload.Invocation, Result)   {}

func TestCalibrateLoose(t *testing.T) {
	f := fn(1, "debian", "python", "flask", 100)
	w := mkWorkload([]*workload.Function{f}, time.Millisecond, 4)
	// The paper's Loose pool size is PeakAliveMB of an unlimited-pool run
	// (experiments.CalibrateLoose reads it).
	loose := New(Config{PoolCapacityMB: 0}, alwaysCold{}).Run(w).PeakAliveMB
	if loose != 400 {
		t.Fatalf("Loose = %v, want 400 (4 concurrent x 100MB)", loose)
	}
}

func TestEnvExposesState(t *testing.T) {
	f := fn(1, "debian", "python", "flask", 128)
	w := mkWorkload([]*workload.Function{f}, time.Second, 3)
	var envs []Env
	spy := schedulerFunc(func(e Env, i *workload.Invocation) int {
		envs = append(envs, e)
		return ColdStart
	})
	New(Config{PoolCapacityMB: 500}, spy).Run(w)
	if len(envs) != 3 {
		t.Fatalf("scheduler called %d times", len(envs))
	}
	if envs[0].Seen != 0 || envs[2].Seen != 2 {
		t.Fatalf("Seen = %d,%d, want 0,2", envs[0].Seen, envs[2].Seen)
	}
	if envs[1].PrevArrival != time.Second {
		t.Fatalf("PrevArrival = %v, want 1s", envs[1].PrevArrival)
	}
	if envs[2].Rate <= 0 {
		t.Fatal("arrival rate EMA not propagated")
	}
}

func TestNilSchedulerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil scheduler did not panic")
		}
	}()
	New(Config{}, nil)
}

func TestRunRejectsInvalidWorkload(t *testing.T) {
	f := fn(1, "debian", "python", "flask", 128)
	w := workload.Workload{Name: "bad", Invocations: []workload.Invocation{
		{Seq: 0, Fn: f, Arrival: 2 * time.Second},
		{Seq: 1, Fn: f, Arrival: time.Second},
	}}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid workload did not panic")
		}
	}()
	New(Config{}, alwaysCold{}).Run(w)
}

func TestPoolSeriesObserved(t *testing.T) {
	f := fn(1, "debian", "python", "flask", 128)
	w := mkWorkload([]*workload.Function{f}, 10*time.Second, 3)
	res := New(Config{PoolCapacityMB: 1000}, bestMatch{}).Run(w)
	peak := 0.0
	for _, v := range res.PoolSeries.V {
		peak = max(peak, v)
	}
	if peak != 128 {
		t.Fatalf("pool series peak = %v, want 128", peak)
	}
}

func TestPackageCacheAcceleratesRepeatColds(t *testing.T) {
	f := fn(1, "debian", "python", "flask", 128)
	// Two sequential cold starts of the same function under alwaysCold:
	// the second one's pulls hit the node-local cache.
	w := mkWorkload([]*workload.Function{f}, 30*time.Second, 2)
	cache := registry.NewCache(10000)
	res := New(Config{PoolCapacityMB: 1000, PackageCache: cache}, alwaysCold{}).Run(w)
	s := res.Metrics.Samples()
	if s[1].Startup >= s[0].Startup {
		t.Fatalf("second cold start %v not faster than first %v (cache miss?)", s[1].Startup, s[0].Startup)
	}
	st := cache.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("cache stats = %+v", st)
	}
	// The completion time must reflect the accelerated pull: a third
	// invocation right after the second completes can reuse it warm.
	if res.Metrics.ColdStarts() != 2 {
		t.Fatalf("cold starts = %d", res.Metrics.ColdStarts())
	}
}

func TestPackageCacheDoesNotAffectWarmL3(t *testing.T) {
	f := fn(1, "debian", "python", "flask", 128)
	w := mkWorkload([]*workload.Function{f}, 30*time.Second, 2)
	cache := registry.NewCache(10000)
	res := New(Config{PoolCapacityMB: 1000, PackageCache: cache}, bestMatch{}).Run(w)
	// Second start is a same-function L3 reuse: no pulls at all.
	if got := res.Metrics.Samples()[1].Startup; got != f.FunctionInit {
		t.Fatalf("L3 startup = %v, want %v", got, f.FunctionInit)
	}
}

func TestInteractiveInvoke(t *testing.T) {
	f := fn(1, "debian", "python", "flask", 128)
	p := New(Config{PoolCapacityMB: 1000}, bestMatch{})
	inv0 := &workload.Invocation{Seq: 0, Fn: f, Arrival: time.Second, Exec: f.Exec}
	r0 := p.Invoke(inv0)
	if !r0.Cold {
		t.Fatal("first interactive invocation not cold")
	}
	// A minute later the container is idle again: warm reuse.
	inv1 := &workload.Invocation{Seq: 1, Fn: f, Arrival: time.Minute, Exec: f.Exec}
	r1 := p.Invoke(inv1)
	if r1.Cold || r1.Level != core.MatchL3 {
		t.Fatalf("second interactive invocation = %+v, want warm L3", r1)
	}
	res := p.Drain()
	if res.Metrics.Count() != 2 || res.Metrics.ColdStarts() != 1 {
		t.Fatalf("drained results = %d invocations, %d colds", res.Metrics.Count(), res.Metrics.ColdStarts())
	}
	if p.Now() < time.Minute {
		t.Fatalf("virtual time = %v", p.Now())
	}
}

func TestInteractiveInvokeMatchesBatchRun(t *testing.T) {
	f1 := fn(1, "debian", "python", "flask", 128)
	f2 := fn(2, "debian", "python", "numpy", 96)
	w := mkWorkload([]*workload.Function{f1, f2}, 2*time.Second, 20)

	batch := New(Config{PoolCapacityMB: 300}, bestMatch{}).Run(w)

	inter := New(Config{PoolCapacityMB: 300}, bestMatch{})
	for i := range w.Invocations {
		inter.Invoke(&w.Invocations[i])
	}
	interRes := inter.Drain()

	if batch.Metrics.TotalStartup() != interRes.Metrics.TotalStartup() ||
		batch.Metrics.ColdStarts() != interRes.Metrics.ColdStarts() {
		t.Fatalf("interactive (%v/%d) diverges from batch (%v/%d)",
			interRes.Metrics.TotalStartup(), interRes.Metrics.ColdStarts(),
			batch.Metrics.TotalStartup(), batch.Metrics.ColdStarts())
	}
}

func TestInteractiveInvokePanicsOnPast(t *testing.T) {
	f := fn(1, "debian", "python", "flask", 128)
	p := New(Config{PoolCapacityMB: 1000}, alwaysCold{})
	p.Invoke(&workload.Invocation{Seq: 0, Fn: f, Arrival: time.Minute, Exec: f.Exec})
	defer func() {
		if recover() == nil {
			t.Fatal("past arrival did not panic")
		}
	}()
	p.Invoke(&workload.Invocation{Seq: 1, Fn: f, Arrival: time.Second, Exec: f.Exec})
}

func TestInteractiveInvokeNilFunctionPanics(t *testing.T) {
	p := New(Config{PoolCapacityMB: 1000}, alwaysCold{})
	defer func() {
		if recover() == nil {
			t.Fatal("nil function did not panic")
		}
	}()
	p.Invoke(&workload.Invocation{Seq: 0, Fn: nil, Arrival: time.Second})
}

func TestRunTwicePanics(t *testing.T) {
	f := fn(1, "debian", "python", "flask", 128)
	w := mkWorkload([]*workload.Function{f}, time.Second, 3)
	p := New(Config{PoolCapacityMB: 1000}, alwaysCold{})
	p.Run(w)
	defer func() {
		if recover() == nil {
			t.Fatal("second Run on one Platform did not panic")
		}
	}()
	p.Run(w)
}
