package api

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlcr/internal/cluster"
	"mlcr/internal/container"
	"mlcr/internal/core"
	"mlcr/internal/evict"
	"mlcr/internal/fstartbench"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/pool"
	"mlcr/internal/workload"
)

// testFunctions is the shared benchmark catalog.
func testFunctions() []*workload.Function { return fstartbench.Functions() }

// vclock is a shared virtual clock for gateway tests: Set pins elapsed
// time, the Clock closure reads it atomically.
type vclock struct{ ns atomic.Int64 }

func (v *vclock) Set(d time.Duration)     { v.ns.Store(int64(d)) }
func (v *vclock) Clock() time.Duration    { return time.Duration(v.ns.Load()) }
func (v *vclock) Advance(d time.Duration) { v.ns.Add(int64(d)) }

func testGateway(t *testing.T, cfg GatewayConfig) *Gateway {
	t.Helper()
	if cfg.Functions == nil {
		cfg.Functions = testFunctions()
	}
	if cfg.NewScheduler == nil {
		cfg.NewScheduler = func() platform.Scheduler { return policy.NewGreedyMatch() }
	}
	g, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGatewayFastPathL3 drives one function through cold start,
// completion and re-invocation under a virtual clock: the second hit
// must come from the layer-1 fast channel at exactly the L3 re-hit
// cost.
func TestGatewayFastPathL3(t *testing.T) {
	var vc vclock
	fns := testFunctions()
	g := testGateway(t, GatewayConfig{Functions: fns, Clock: vc.Clock, Shards: 1})
	fn := fns[0]

	s, cold, err := g.Do(fn.ID, -1, 0)
	if err != nil || !cold {
		t.Fatalf("first invoke: startup=%v cold=%v err=%v, want cold", s, cold, err)
	}
	if want := fn.ColdStartTime(); s != want {
		t.Fatalf("cold startup %v, want %v", s, want)
	}

	// Jump past the busy window so the second request's drain parks the
	// container in layer 1.
	vc.Set(s + fn.Exec + time.Second)
	s2, cold2, err := g.Do(fn.ID, -1, 0)
	if err != nil || cold2 {
		t.Fatalf("second invoke: cold=%v err=%v, want warm", cold2, err)
	}
	if want := container.Estimate(fn, core.MatchL3, false).Total(); s2 != want {
		t.Fatalf("warm startup %v, want exact L3 re-hit cost %v", s2, want)
	}
	st := g.Stats()
	if st.FastHits != 1 {
		t.Fatalf("FastHits = %d, want 1 (second hit must use layer 1)", st.FastHits)
	}
	if st.Invocations != 2 || st.ColdStarts != 1 || st.WarmStarts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ReuseByLevel.L3 != 1 {
		t.Fatalf("L3 reuse = %d, want 1", st.ReuseByLevel.L3)
	}
}

// TestGatewaySlowPathClaimsFastLayer: a request's own drain can park a
// container of the requested function in the fast layer; the request
// must then claim it as an exact L3 re-hit, not cold-start beside it.
func TestGatewaySlowPathClaimsFastLayer(t *testing.T) {
	var vc vclock
	fns := testFunctions()
	g := testGateway(t, GatewayConfig{Functions: fns, Clock: vc.Clock, Shards: 1})
	fn := fns[0]
	s, _, _ := g.Do(fn.ID, -1, 0)
	res, _ := g.Invoke(fn.ID, s+fn.Exec+time.Second, fn.Exec)
	if res.Cold || res.MatchLevel != core.MatchL3.String() || res.ContainerID != 1 {
		t.Fatalf("request after the completion: container %d, cold=%v, level %v; want container 1 warm at L3", res.ContainerID, res.Cold, res.MatchLevel)
	}
	if got := g.Stats(); got.FastHits != 1 || got.ColdStarts != 1 || got.Invocations != 2 {
		t.Fatalf("FastHits %d, ColdStarts %d, Invocations %d; want 1, 1, 2", got.FastHits, got.ColdStarts, got.Invocations)
	}
}

// TestGatewayRetiresEqualCompletionsInStartOrder: containers that finish
// at the same instant go back to the fast layer in the order their
// invocations started, so later claims hand them out in that order.
func TestGatewayRetiresEqualCompletionsInStartOrder(t *testing.T) {
	var vc vclock
	fns := testFunctions()
	g := testGateway(t, GatewayConfig{Functions: fns, Clock: vc.Clock, Shards: 1})
	fn := fns[0]
	for want := 1; want <= 3; want++ {
		out, err := g.Invoke(fn.ID, 0, 0)
		if err != nil || !out.Cold || out.ContainerID != want {
			t.Fatalf("start %d at t=0: %+v, err %v; want cold container %d", want, out, err, want)
		}
	}
	done := fn.ColdStartTime() + fn.Exec + time.Second
	for want := 1; want <= 3; want++ {
		out, err := g.Invoke(fn.ID, done, 0)
		if err != nil || out.Cold || out.ContainerID != want {
			t.Fatalf("invoke %d after the equal completions: %+v, err %v; want warm container %d", want, out, err, want)
		}
	}
}

// TestGatewayFastLayerExpiresAtEvictorTTL: a container parked in the
// fast layer expires at the shard evictor's TTL with Pool.Expire's
// strict bound — still warm after exactly TTL idle, discarded on claim
// 1 ns later. Under LRU (TTL 0) the same sequence stays warm.
func TestGatewayFastLayerExpiresAtEvictorTTL(t *testing.T) {
	const ttl = 2 * time.Second
	for _, tc := range []struct {
		name        string
		newEvictor  func() pool.Evictor
		lastCold    bool
		fastExpired int64
	}{
		{"keepalive", func() pool.Evictor { return evict.KeepAlive{Alive: ttl} }, true, 1},
		{"lru", func() pool.Evictor { return evict.NewLRU() }, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var vc vclock
			fns := testFunctions()
			g := testGateway(t, GatewayConfig{
				Functions: fns, Clock: vc.Clock, Shards: 1, NewEvictor: tc.newEvictor,
			})
			fn := fns[0]
			s, _, _ := g.Do(fn.ID, 0, 0)
			done := s + fn.Exec // parks in the fast layer
			s, cold, _ := g.Do(fn.ID, done+ttl, 0)
			if cold {
				t.Fatal("container idle for exactly the TTL must still be warm")
			}
			done += ttl + s + fn.Exec
			if _, cold, _ = g.Do(fn.ID, done+ttl+time.Nanosecond, 0); cold != tc.lastCold {
				t.Fatalf("cold = %v after TTL + 1 ns idle, want %v", cold, tc.lastCold)
			}
			if got := g.Stats().FastExpired; got != tc.fastExpired {
				t.Fatalf("FastExpired = %d, want %d", got, tc.fastExpired)
			}
		})
	}
}

// TestGatewayFastBudgetFallsBackToPool: when the fast layer's memory
// budget cannot hold even one container, completions park in the shard
// pool segment instead, and reuse flows through the scheduler (still
// warm, just not from layer 1).
func TestGatewayFastBudgetFallsBackToPool(t *testing.T) {
	var vc vclock
	fns := testFunctions()
	// Share = 1 MB/shard, far below the function's memory: the fast
	// layer's budget check fails, and the pool segment rejects the
	// completion too, so the next hit is cold again.
	g := testGateway(t, GatewayConfig{
		Functions: fns, Clock: vc.Clock, Shards: 1, PoolCapacityMB: 1,
	})
	fn := fns[0]
	s, _, _ := g.Do(fn.ID, -1, 0)
	vc.Set(s + fn.Exec + time.Second)
	_, cold, _ := g.Do(fn.ID, -1, 0)
	if !cold {
		t.Fatal("1 MB budget cannot park a container; second invoke must be cold")
	}
	st := g.Stats()
	if st.FastHits != 0 {
		t.Fatalf("FastHits = %d, want 0 under a sub-container fast budget", st.FastHits)
	}
	if st.Rejections == 0 {
		t.Fatalf("pool rejections = 0, want the completion rejected by the tiny segment")
	}
}

// TestGatewayDeterministicUnderVirtualClock: the same single-threaded
// request script against two fresh gateways yields identical stats —
// concurrency is the only source of nondeterminism.
func TestGatewayDeterministicUnderVirtualClock(t *testing.T) {
	run := func() GatewayStatsResponse {
		var vc vclock
		fns := testFunctions()
		g := testGateway(t, GatewayConfig{Functions: fns, Clock: vc.Clock, Shards: 4})
		for i := 0; i < 200; i++ {
			vc.Set(time.Duration(i) * 400 * time.Millisecond)
			fn := fns[i%len(fns)]
			if _, _, err := g.Do(fn.ID, -1, 0); err != nil {
				t.Fatal(err)
			}
		}
		return g.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same script, different stats:\n%+v\n%+v", a, b)
	}
	// Recorded at the commit before platform.Apply replaced the
	// gateway's own copy of the choice-to-container step: the extraction
	// must not move a single counter. WarmByLevel[0] counts the cold
	// starts, as the simulator's ByLevel does.
	want := GatewayStatsResponse{
		Policy: "Greedy-Match", Invocations: 200, TotalStartupMS: 456040, AvgStartupMS: 2280,
		StartupQuantiles: StartupQuantiles{P50: 142, P95: 13153, P99: 30615},
		ColdStarts:       31, WarmStarts: 169,
		ReuseByLevel: ReuseCounts{L3: 169}, WarmByLevel: [4]int{31, 0, 0, 169},
		PoolUsedMB: 12080, PoolPeakMB: 3300,
		Shards: 4, FastHits: 169, FastParkedMB: 8780,
	}
	if a != want {
		t.Fatalf("stats moved:\n got %+v\nwant %+v", a, want)
	}
}

// TestGatewayReplayPinned replays 3,000 seeded invocations from one
// goroutine on a virtual clock through four shards with one-deep fast
// channels and a 750 MB share each, under four evictors and two fixed
// gaps. Unlike TestGatewayDeterministicUnderVirtualClock (L3 re-hits
// only, no evictions), the cells go through pool-segment evictions,
// rejections and cross-function L1/L2 reuse. Each cell pins its stats
// and a digest of its container-ID sequence. The 1 s cells put
// completions exactly on arrivals (the 37 ms cells never do), so their
// values follow the tie rule: a completion at a request's instant runs
// after it.
func TestGatewayReplayPinned(t *testing.T) {
	want := map[string]string{
		"lru/37ms":       "43a91c85803ea71d {Policy:Greedy-Match Invocations:3000 TotalStartupMS:15758715 AvgStartupMS:5252 StartupQuantiles:{P50:402 P95:30615 P99:30615} ColdStarts:1009 WarmStarts:1991 ReuseByLevel:{L1:147 L2:167 L3:1677} WarmByLevel:[1009 147 167 1677] PoolUsedMB:2800 PoolPeakMB:2896 Evictions:672 Rejections:182 Expirations:0 PolicyErrors:0 Shards:4 FastHits:1032 FastExpired:0 FastParkedMB:560}",
		"lru/1s":         "113a8cd6d08c75f6 {Policy:Greedy-Match Invocations:3000 TotalStartupMS:9989215 AvgStartupMS:3329 StartupQuantiles:{P50:142 P95:30615 P99:30615} ColdStarts:437 WarmStarts:2563 ReuseByLevel:{L1:31 L2:55 L3:2477} WarmByLevel:[437 31 55 2477] PoolUsedMB:1792 PoolPeakMB:2680 Evictions:170 Rejections:254 Expirations:0 PolicyErrors:0 Shards:4 FastHits:2015 FastExpired:0 FastParkedMB:1264}",
		"faascache/37ms": "0fc1e10e4ef4700a {Policy:Greedy-Match Invocations:3000 TotalStartupMS:15945685 AvgStartupMS:5315 StartupQuantiles:{P50:503 P95:30615 P99:30615} ColdStarts:1068 WarmStarts:1932 ReuseByLevel:{L1:154 L2:167 L3:1611} WarmByLevel:[1068 154 167 1611] PoolUsedMB:2824 PoolPeakMB:2896 Evictions:730 Rejections:182 Expirations:0 PolicyErrors:0 Shards:4 FastHits:1011 FastExpired:0 FastParkedMB:720}",
		"faascache/1s":   "06fbe88c7884cd58 {Policy:Greedy-Match Invocations:3000 TotalStartupMS:10091200 AvgStartupMS:3363 StartupQuantiles:{P50:142 P95:30615 P99:30615} ColdStarts:463 WarmStarts:2537 ReuseByLevel:{L1:61 L2:56 L3:2420} WarmByLevel:[463 61 56 2420] PoolUsedMB:1952 PoolPeakMB:2656 Evictions:194 Rejections:254 Expirations:0 PolicyErrors:0 Shards:4 FastHits:1953 FastExpired:0 FastParkedMB:1104}",
		"keepalive/37ms": "551143eb70210e82 {Policy:Greedy-Match Invocations:3000 TotalStartupMS:16683395 AvgStartupMS:5561 StartupQuantiles:{P50:503 P95:30615 P99:30615} ColdStarts:1152 WarmStarts:1848 ReuseByLevel:{L1:156 L2:148 L3:1544} WarmByLevel:[1152 156 148 1544] PoolUsedMB:2320 PoolPeakMB:2896 Evictions:0 Rejections:994 Expirations:0 PolicyErrors:0 Shards:4 FastHits:935 FastExpired:0 FastParkedMB:560}",
		"keepalive/1s":   "6d9957c70f58ec58 {Policy:Greedy-Match Invocations:3000 TotalStartupMS:9919400 AvgStartupMS:3306 StartupQuantiles:{P50:142 P95:30615 P99:30615} ColdStarts:441 WarmStarts:2559 ReuseByLevel:{L1:39 L2:71 L3:2449} WarmByLevel:[441 39 71 2449] PoolUsedMB:1656 PoolPeakMB:2656 Evictions:0 Rejections:428 Expirations:0 PolicyErrors:0 Shards:4 FastHits:1970 FastExpired:0 FastParkedMB:968}",
		"clean/37ms":     "a3e87c795455388c {Policy:Greedy-Match Invocations:3000 TotalStartupMS:16093315 AvgStartupMS:5364 StartupQuantiles:{P50:503 P95:30615 P99:30615} ColdStarts:1104 WarmStarts:1896 ReuseByLevel:{L1:171 L2:182 L3:1543} WarmByLevel:[1104 171 182 1543] PoolUsedMB:2184 PoolPeakMB:2888 Evictions:769 Rejections:182 Expirations:0 PolicyErrors:0 Shards:4 FastHits:999 FastExpired:0 FastParkedMB:544}",
		"clean/1s":       "72b377e92be823dc {Policy:Greedy-Match Invocations:3000 TotalStartupMS:10160965 AvgStartupMS:3386 StartupQuantiles:{P50:142 P95:30615 P99:30615} ColdStarts:469 WarmStarts:2531 ReuseByLevel:{L1:54 L2:72 L3:2405} WarmByLevel:[469 54 72 2405] PoolUsedMB:1848 PoolPeakMB:2680 Evictions:202 Rejections:254 Expirations:0 PolicyErrors:0 Shards:4 FastHits:1976 FastExpired:0 FastParkedMB:1320}",
	}
	for _, ev := range []string{"lru", "faascache", "keepalive", "clean"} {
		for _, gap := range []time.Duration{37 * time.Millisecond, time.Second} {
			var vc vclock
			fns := testFunctions()
			g := testGateway(t, GatewayConfig{
				Functions: fns, Clock: vc.Clock, Shards: 4, FastDepth: 1, PoolCapacityMB: 3000,
				NewEvictor: func() pool.Evictor { return evict.MustNew(ev) },
			})
			rng := rand.New(rand.NewSource(1))
			ids := sha256.New()
			for i := 0; i < 3000; i++ {
				vc.Set(time.Duration(i) * gap)
				out, err := g.Invoke(fns[rng.Intn(len(fns))].ID, -1, 0)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(ids, "%d,", out.ContainerID)
			}
			cell := ev + "/" + gap.String()
			got := fmt.Sprintf("%x %+v", ids.Sum(nil)[:8], g.Stats())
			if got != want[cell] {
				t.Errorf("%s:\n got %s\nwant %s", cell, got, want[cell])
			}
		}
	}
}

// faultySched wraps Greedy-Match and, when inject says so, replaces its
// choice with a policy error: the ID of an idle container that matches
// the invocation at no level when the shard pool holds one, else -7.
type faultySched struct {
	platform.Scheduler
	inject          func() bool
	badIDs, noMatch *atomic.Int64
}

func (f *faultySched) Schedule(env platform.Env, inv *workload.Invocation) int {
	if !f.inject() {
		return f.Scheduler.Schedule(env, inv)
	}
	var mismatch *container.Container
	env.Pool.RangeIdle(func(c *container.Container) bool {
		if core.Match(&inv.Fn.Image, c.Image) == core.NoMatch {
			mismatch = c
		}
		return mismatch == nil
	})
	if mismatch != nil {
		f.noMatch.Add(1)
		return mismatch.ID
	}
	f.badIDs.Add(1)
	return -7
}

// TestGatewayPolicyErrorsFallBackCold: under concurrent load a scheduler
// that keeps returning -7 and IDs of containers matching at no level costs cold starts,
// not a shard — every request is served, every shard still serves
// afterwards, and /stats counts exactly the injected errors.
func TestGatewayPolicyErrorsFallBackCold(t *testing.T) {
	var vc vclock
	var calls, badIDs, noMatch atomic.Int64
	fns := testFunctions()
	g := testGateway(t, GatewayConfig{
		Functions: fns, Clock: vc.Clock, Shards: 4, FastDepth: 1, PoolCapacityMB: 4096,
		NewScheduler: func() platform.Scheduler {
			return &faultySched{
				Scheduler: policy.NewGreedyMatch(),
				inject:    func() bool { return calls.Add(1)%2 == 0 },
				badIDs:    &badIDs, noMatch: &noMatch,
			}
		},
	})
	const workers, perWorker = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				vc.Advance(100 * time.Millisecond)
				if _, err := g.Invoke(fns[(w+i)%len(fns)].ID, -1, time.Millisecond); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, fn := range fns { // every shard that owns a function still serves
		if _, err := g.Invoke(fn.ID, -1, 0); err != nil {
			t.Fatal(err)
		}
	}
	st := g.Stats()
	if badIDs.Load() == 0 || noMatch.Load() == 0 {
		t.Fatalf("injected %d unknown IDs and %d no-match IDs; the load must produce both", badIDs.Load(), noMatch.Load())
	}
	if got, want := int64(st.PolicyErrors), badIDs.Load()+noMatch.Load(); got != want {
		t.Fatalf("PolicyErrors = %d, want the %d injected", got, want)
	}
	if n := workers*perWorker + len(fns); st.Invocations != n || st.ColdStarts+st.WarmStarts != n {
		t.Fatalf("served %d (cold %d + warm %d), want %d", st.Invocations, st.ColdStarts, st.WarmStarts, n)
	}
}

// panicOnTenth panics on its 10th Schedule call.
type panicOnTenth struct {
	platform.Scheduler
	calls int
}

func (p *panicOnTenth) Schedule(env platform.Env, inv *workload.Invocation) int {
	if p.calls++; p.calls == 10 {
		panic("scheduler bug")
	}
	return p.Scheduler.Schedule(env, inv)
}

// TestGatewaySchedulerPanicReleasesShard: a policy that panics inside the
// shard's critical section fails its own request only; the shard lock is
// released and the next request to the same shard is served.
func TestGatewaySchedulerPanicReleasesShard(t *testing.T) {
	var vc vclock // pinned at 0: nothing completes, so every request reaches the scheduler
	g := testGateway(t, GatewayConfig{
		Clock: vc.Clock, Shards: 1,
		NewScheduler: func() platform.Scheduler { return &panicOnTenth{Scheduler: policy.NewGreedyMatch()} },
	})
	ts := httptest.NewUnstartedServer(g)
	ts.Config.ErrorLog = log.New(io.Discard, "", 0) // net/http logs the recovered panic
	ts.Start()
	defer ts.Close()
	client := &http.Client{Timeout: 5 * time.Second}
	post := func() (int, error) {
		resp, err := client.Post(ts.URL+"/invoke", "application/json", strings.NewReader(`{"fn_id":1}`))
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	for i := 1; i <= 9; i++ {
		if code, err := post(); err != nil || code != http.StatusOK {
			t.Fatalf("request %d: status %d, err %v", i, code, err)
		}
	}
	if code, err := post(); err == nil {
		t.Fatalf("request 10 hit the panicking scheduler but was answered %d", code)
	}
	if code, err := post(); err != nil || code != http.StatusOK {
		t.Fatalf("request after the panic: status %d, err %v (shard wedged?)", code, err)
	}
}

// TestGatewayWarmSteadyStateAllocs pins the serving path's 0-alloc
// contract: the steady-state warm path — shard lock, drain of the due
// completion into layer 1, fast-channel claim, L3 reuse, platform.Track
// — performs zero heap allocations per request.
func TestGatewayWarmSteadyStateAllocs(t *testing.T) {
	var vc vclock
	fns := testFunctions()
	g := testGateway(t, GatewayConfig{Functions: fns, Clock: vc.Clock, Shards: 1})
	fn := fns[0]
	now := time.Duration(0)
	step := fn.ColdStartTime() + fn.Exec + time.Second
	warm := func() {
		now += step
		vc.Set(now)
		if _, _, err := g.Do(fn.ID, -1, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		warm() // reach steady state: container cycles through the fast layer
	}
	if g.Stats().FastHits == 0 {
		t.Fatal("warm-up never reached layer 1")
	}
	allocs := testing.AllocsPerRun(300, warm)
	if allocs != 0 {
		t.Fatalf("steady-state warm path allocates %.1f/op, want 0", allocs)
	}
}

// TestGatewayConcurrentHammer races /invoke, /stats, /metrics and
// /reset handlers from many goroutines; run under -race this is the
// serving path's data-race gate, and the final stats must stay
// internally consistent.
func TestGatewayConcurrentHammer(t *testing.T) {
	fns := testFunctions()
	g := testGateway(t, GatewayConfig{
		Functions: fns, PoolCapacityMB: 4096, Shards: 4,
	})

	const workers = 8
	const perWorker = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				fn := fns[(w+i)%len(fns)]
				body, _ := json.Marshal(InvokeRequest{FnID: fn.ID, ExecMS: 1})
				req := httptest.NewRequest("POST", "/invoke", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				g.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("invoke: status %d: %s", rec.Code, rec.Body.String())
					return
				}
			}
		}(w)
	}
	// Concurrent observers and a mid-flight reset.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			for _, path := range []string{"/stats", "/metrics", "/pool", "/functions"} {
				rec := httptest.NewRecorder()
				g.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				if rec.Code != http.StatusOK {
					t.Errorf("%s: status %d", path, rec.Code)
					return
				}
			}
			if i == 25 {
				rec := httptest.NewRecorder()
				g.ServeHTTP(rec, httptest.NewRequest("POST", "/reset", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("reset: status %d", rec.Code)
					return
				}
			}
		}
	}()
	wg.Wait()

	st := g.Stats()
	if st.ColdStarts+st.WarmStarts != st.Invocations {
		t.Fatalf("cold %d + warm %d != invocations %d", st.ColdStarts, st.WarmStarts, st.Invocations)
	}
	if st.Invocations > workers*perWorker {
		t.Fatalf("served %d > issued %d", st.Invocations, workers*perWorker)
	}
}

// TestGatewayInvokeHTTPShape checks the HTTP response fields against
// the in-process result, and error statuses.
func TestGatewayInvokeHTTPShape(t *testing.T) {
	var vc vclock
	fns := testFunctions()
	g := testGateway(t, GatewayConfig{Functions: fns, Clock: vc.Clock})
	fn := fns[0]
	body, _ := json.Marshal(InvokeRequest{FnID: fn.ID, AtMS: 1500})
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("POST", "/invoke", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out InvokeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.FnID != fn.ID || !out.Cold || out.MatchLevel != "no-match" {
		t.Fatalf("response %+v", out)
	}
	if out.StartupMS != fn.ColdStartTime().Milliseconds() || out.VirtualTimeMS != 1500 {
		t.Fatalf("startup/virtual time wrong: %+v", out)
	}

	rec = httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("POST", "/invoke", strings.NewReader(`{"fn_id": 99999}`)))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown fn: status %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("POST", "/invoke", strings.NewReader("{")))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", rec.Code)
	}
}

// TestInvokeBodyLimit: both gateways mlcr-server builds stop reading a
// POST /invoke body at maxInvokeBody and answer 413, while malformed
// JSON under the cap stays a 400 and a padded body under the cap is
// served.
func TestInvokeBodyLimit(t *testing.T) {
	padded := func(n int) string { return `{"fn_id":1,"pad":"` + strings.Repeat("x", n) + `"}` }
	for name, h := range invokeHandlers(t) {
		for _, tc := range []struct {
			what, body string
			want       int
		}{
			{"1 MiB body", padded(1 << 20), http.StatusRequestEntityTooLarge},
			{"malformed body", "{", http.StatusBadRequest},
			{"padded body under the cap", padded(maxInvokeBody / 2), http.StatusOK},
		} {
			if code := postInvoke(h, tc.body); code != tc.want {
				t.Errorf("%s, %s: status %d, want %d", name, tc.what, code, tc.want)
			}
		}
	}
}

// TestGatewayResetClearsState: reset swaps in a fresh generation.
func TestGatewayResetClearsState(t *testing.T) {
	var vc vclock
	g := testGateway(t, GatewayConfig{Clock: vc.Clock})
	fns := testFunctions()
	for i := 0; i < 5; i++ {
		vc.Set(time.Duration(i) * time.Second)
		g.Do(fns[i%len(fns)].ID, -1, 0)
	}
	if g.Stats().Invocations != 5 {
		t.Fatalf("pre-reset invocations = %d", g.Stats().Invocations)
	}
	g.Reset()
	if st := g.Stats(); st.Invocations != 0 || st.PoolUsedMB != 0 {
		t.Fatalf("post-reset stats not fresh: %+v", st)
	}
}

// TestGatewayMetricsText sanity-checks the Prometheus exposition.
func TestGatewayMetricsText(t *testing.T) {
	var vc vclock
	fns := testFunctions()
	g := testGateway(t, GatewayConfig{Functions: fns, Clock: vc.Clock})
	g.Do(fns[0].ID, -1, 0)
	var buf bytes.Buffer
	if err := g.WriteMetricsText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"mlcr_gateway_invocations_total 1",
		"mlcr_gateway_cold_starts_total 1",
		"mlcr_gateway_shards 16",
		`mlcr_gateway_startup_ms{quantile="0.99"}`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, buf.String())
		}
	}
}

// TestGatewayMetricsSeriesNames pins the series names of the observed
// gateway's /metrics and of the unobserved one after 200 invocations
// half a second apart over a 2 GB pool: scrapers key on them. The
// order is the writer's (families by base name), so the test sorts.
func TestGatewayMetricsSeriesNames(t *testing.T) {
	gateway := []string{
		"mlcr_gateway_cold_starts_total",
		"mlcr_gateway_evictions_total",
		"mlcr_gateway_fast_hits_total",
		"mlcr_gateway_invocations_total",
		"mlcr_gateway_pool_used_mb",
		"mlcr_gateway_shards",
		`mlcr_gateway_startup_ms{quantile="0.5"}`,
		`mlcr_gateway_startup_ms{quantile="0.95"}`,
		`mlcr_gateway_startup_ms{quantile="0.99"}`,
		"mlcr_gateway_warm_starts_total",
	}
	shard := []string{
		"mlcr_cold_starts_total",
		"mlcr_containers_created_total",
		"mlcr_containers_reused_total",
		"mlcr_invocations_total",
		`mlcr_pool_evictions_total{policy="lru",reason="capacity"}`,
		"mlcr_pool_used_mb",
		"mlcr_running_mb",
		"mlcr_startup_seconds_count",
		"mlcr_startup_seconds_sum",
		"mlcr_volume_swaps_total",
		`mlcr_warm_starts_total{level="1"}`,
		`mlcr_warm_starts_total{level="2"}`,
		`mlcr_warm_starts_total{level="3"}`,
	}
	summary := func(name, labels string) {
		for _, q := range []string{"0.5", "0.9", "0.99", "0.999"} {
			shard = append(shard, name+"{"+labels+`quantile="`+q+`"}`)
		}
	}
	summary("mlcr_startup_seconds", "")
	for _, ph := range []string{"dispatch", "pool_evict", "schedule"} {
		labels := `phase="` + ph + `"`
		summary("mlcr_phase_seconds", labels+",")
		shard = append(shard, "mlcr_phase_seconds_count{"+labels+"}", "mlcr_phase_seconds_sum{"+labels+"}")
	}

	fns := testFunctions()
	for _, c := range []struct {
		name string
		cfg  func(GatewayConfig) GatewayConfig
		want []string
	}{
		{"unobserved", func(cfg GatewayConfig) GatewayConfig { return cfg }, gateway},
		{"observed", simConfig, append(append([]string(nil), gateway...), shard...)},
	} {
		var vc vclock
		g := testGateway(t, c.cfg(GatewayConfig{Clock: vc.Clock, PoolCapacityMB: 2048}))
		for i := 0; i < 200; i++ {
			vc.Set(time.Duration(i) * 500 * time.Millisecond)
			g.Do(fns[(i*7)%len(fns)].ID, -1, 0)
		}
		var buf bytes.Buffer
		if err := g.WriteMetricsText(&buf); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
			if !strings.HasPrefix(line, "#") {
				got = append(got, strings.Fields(line)[0])
			}
		}
		sort.Strings(got)
		sort.Strings(c.want)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s gateway series:\n got %q\nwant %q", c.name, got, c.want)
		}
	}
}

// TestGatewayConfigValidation: NewGateway refuses an empty catalog, a
// missing scheduler factory, duplicate IDs, and Observe on anything but
// one shard without the fast layer.
func TestGatewayConfigValidation(t *testing.T) {
	if _, err := NewGateway(GatewayConfig{}); err == nil {
		t.Fatal("empty catalog must fail")
	}
	fns := testFunctions()
	if _, err := NewGateway(GatewayConfig{Functions: fns}); err == nil {
		t.Fatal("nil NewScheduler must fail")
	}
	mk := func() platform.Scheduler { return policy.NewGreedyMatch() }
	dup := []*workload.Function{fns[0], fns[0]}
	if _, err := NewGateway(GatewayConfig{Functions: dup, NewScheduler: mk}); err == nil {
		t.Fatal("duplicate IDs must fail")
	}
	for _, c := range []struct{ shards, depth int }{{0, -1}, {2, -1}, {1, 0}, {1, 1}} {
		if _, err := NewGateway(GatewayConfig{Functions: fns, NewScheduler: mk, Observe: true, Shards: c.shards, FastDepth: c.depth}); err == nil {
			t.Errorf("Observe with Shards %d, FastDepth %d accepted", c.shards, c.depth)
		}
	}
	if _, err := NewGateway(simConfig(GatewayConfig{Functions: fns, NewScheduler: mk})); err != nil {
		t.Fatalf("Observe with one shard and no fast layer: %v", err)
	}
}

// TestGatewayCompletionAtArrivalRunsAfterIt pins the simulator's tie
// rule on the gateway, with and without the fast layer: a container
// that finishes at the very instant the next invocation arrives is
// still busy for it.
func TestGatewayCompletionAtArrivalRunsAfterIt(t *testing.T) {
	fns := testFunctions()
	fn := fns[0]
	for _, depth := range []int{0, -1} {
		g := testGateway(t, GatewayConfig{Functions: fns, Clock: func() time.Duration { return 0 }, Shards: 1, FastDepth: depth})
		first, _ := g.Invoke(fn.ID, 0, 0)
		done := fn.ColdStartTime() + fn.Exec
		if out, _ := g.Invoke(fn.ID, done, 0); !out.Cold || out.ContainerID == first.ContainerID {
			t.Errorf("FastDepth %d: invocation at the completion instant %v got %+v, want a cold start", depth, done, out)
		}
	}
}

// TestGatewayReportsServedInstant: an arrival behind its shard's clock
// is served at the clock, and virtual_time_ms says so, for a layer-1
// claim too. Each input is a request script on fresh gateways.
func TestGatewayReportsServedInstant(t *testing.T) {
	// Functions 4 and 5 share a shard at the default 16 shards
	// (TestGatewayShardRounding). 4 starts cold at 0; 5's drain, 10 s
	// after 4 completes, parks 4's container in layer 1; 4 then arrives
	// 1 s after its completion, behind the shard clock.
	a := testFunctions()[3]
	done := (a.ColdStartTime() + a.Exec).Milliseconds()
	for _, script := range [][]struct {
		fnID           int
		atMS, servedMS int64
	}{
		{{1, 50000, 50000}, {1, 1000, 50000}},
		{{4, 0, 0}, {5, done + 10000, done + 10000}, {4, done + 1000, done + 10000}},
	} {
		for name, h := range invokeHandlers(t) {
			for _, c := range script {
				body := fmt.Sprintf(`{"fn_id":%d,"at_ms":%d}`, c.fnID, c.atMS)
				want := fmt.Sprintf(`"virtual_time_ms":%d`, c.servedMS)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/invoke", strings.NewReader(body)))
				if !strings.Contains(rec.Body.String(), want) {
					t.Errorf("%s, %s: answered %s, want %s", name, body, rec.Body.String(), want)
				}
			}
		}
	}
}

// TestGatewayFastLayerOverrunsShare pins the layer-1 memory overrun
// (ROADMAP items 5(c) and 12): parkFast checks parked plus pooled
// memory against the shard's share only when it parks, and the pool
// then fills to the full share on its own, so pool_used_mb, which
// includes fast_parked_mb, exceeds one share but never two.
func TestGatewayFastLayerOverrunsShare(t *testing.T) {
	const share = 2000
	var vc vclock
	fns := testFunctions()
	g := testGateway(t, GatewayConfig{Functions: fns, Clock: vc.Clock, Shards: 1, PoolCapacityMB: share})
	rng := rand.New(rand.NewSource(1))
	peak := 0.0
	for i := 0; i < 3000; i++ {
		vc.Set(time.Duration(i) * 200 * time.Millisecond)
		if _, _, err := g.Do(fns[rng.Intn(len(fns))].ID, -1, 0); err != nil {
			t.Fatal(err)
		}
		peak = max(peak, g.Stats().PoolUsedMB)
	}
	t.Logf("peak pool_used_mb %v on a %d MB share", peak, share)
	if peak <= share || peak > 2*share {
		t.Fatalf("peak pool_used_mb %v, want within (%d, %d]", peak, share, 2*share)
	}
}

// TestGatewayMetricsOneGeneration: /metrics reads the gateway series
// and the observed shard's series off one generation, so a generation
// written after a Reset still reads its own counters in both.
func TestGatewayMetricsOneGeneration(t *testing.T) {
	var vc vclock
	fns := testFunctions()
	g := testGateway(t, simConfig(GatewayConfig{Functions: fns, Clock: vc.Clock}))
	for i := 0; i < 7; i++ {
		vc.Set(time.Duration(i) * time.Second)
		if _, _, err := g.Do(fns[i].ID, -1, 0); err != nil {
			t.Fatal(err)
		}
	}
	old := g.state.Load()
	g.Reset()
	var buf bytes.Buffer
	if err := old.writeMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mlcr_gateway_invocations_total 7", "mlcr_invocations_total 7"} {
		if !strings.Contains(buf.String(), "\n"+want+"\n") {
			t.Errorf("old generation's metrics lack %q:\n%s", want, buf.String())
		}
	}
}

// TestGatewayShardRounding: a shard count is taken as given, not
// rounded, and every function sits on the shard the cluster's
// by-function router names. At 16 shards that placement is the
// power-of-two mask the gateway used before it shared the router,
// splitmix64(id) & 15, kept here as a literal.
func TestGatewayShardRounding(t *testing.T) {
	shardIndex := func(st *gwState, gf *gwFn) int {
		for i, sh := range st.shards {
			if sh == gf.shard {
				return i
			}
		}
		t.Fatalf("function %d sits on no shard", gf.fn.ID)
		return -1
	}
	for _, shards := range []int{5, 16} {
		st := testGateway(t, GatewayConfig{Shards: shards}).state.Load()
		if len(st.shards) != shards {
			t.Fatalf("Shards %d built %d shards", shards, len(st.shards))
		}
		r := cluster.MustNewRouter("by-function", cluster.RouterConfig{Workers: shards})
		for i, f := range testFunctions() {
			want := r.Route(i, &workload.Invocation{Fn: f})
			if got := shardIndex(st, st.byID[f.ID]); got != want {
				t.Errorf("Shards %d: function %d on shard %d, by-function names %d", shards, f.ID, got, want)
			}
		}
	}
	mask16 := map[int]int{1: 1, 2: 14, 3: 13, 4: 10, 5: 10, 6: 0, 7: 7, 8: 6, 9: 4, 10: 10, 11: 13, 12: 3, 13: 15}
	st := testGateway(t, GatewayConfig{Shards: 16}).state.Load()
	if len(st.byID) != len(mask16) {
		t.Fatalf("catalogue has %d functions, the literal %d", len(st.byID), len(mask16))
	}
	for id, want := range mask16 {
		if got := shardIndex(st, st.byID[id]); got != want {
			t.Errorf("16 shards: function %d on shard %d, splitmix64 & 15 put it on %d", id, got, want)
		}
	}
}
