package api

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlcr/internal/container"
	"mlcr/internal/core"
	"mlcr/internal/fstartbench"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
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
// must come from the lock-free fast layer at exactly the L3 re-hit
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

	// Jump past the busy window so the completion watermark fires.
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
		t.Fatalf("FastHits = %d, want 1 (second hit must use the lock-free layer)", st.FastHits)
	}
	if st.Invocations != 2 || st.ColdStarts != 1 || st.WarmStarts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ReuseByLevel.L3 != 1 {
		t.Fatalf("L3 reuse = %d, want 1", st.ReuseByLevel.L3)
	}
}

// TestGatewayFastTTLExpiry: a container parked in the fast layer longer
// than FastTTL is discarded on claim, forcing a fresh cold start.
func TestGatewayFastTTLExpiry(t *testing.T) {
	var vc vclock
	fns := testFunctions()
	g := testGateway(t, GatewayConfig{
		Functions: fns, Clock: vc.Clock, Shards: 1, FastTTL: 2 * time.Second,
	})
	fn := fns[0]
	s, _, _ := g.Do(fn.ID, -1, 0)
	vc.Set(s + fn.Exec + time.Second) // complete, park in fast layer
	// Sit well past the TTL, then invoke: the parked container is stale.
	vc.Advance(time.Minute)
	_, cold, _ := g.Do(fn.ID, -1, 0)
	if !cold {
		t.Fatal("stale fast-layer container must not be reused past FastTTL")
	}
	if st := g.Stats(); st.FastExpired != 1 {
		t.Fatalf("FastExpired = %d, want 1", st.FastExpired)
	}
}

// TestGatewayFastBudgetFallsBackToPool: when the fast layer's memory
// budget cannot hold even one container, completions park in the shard
// pool segment instead, and reuse flows through the scheduler (still
// warm, just not lock-free).
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
	// must not move a single counter.
	want := GatewayStatsResponse{
		StatsResponse: StatsResponse{
			Policy: "Greedy-Match", Invocations: 200, TotalStartupMS: 456040, AvgStartupMS: 2280,
			StartupQuantiles: StartupQuantiles{P50: 142, P95: 13153, P99: 30615},
			ColdStarts:       31, WarmStarts: 169,
			ReuseByLevel: ReuseCounts{L3: 169}, WarmByLevel: [4]int{0, 0, 0, 169},
			PoolUsedMB: 12080, PoolPeakMB: 3300,
		},
		Shards: 4, FastHits: 169, FastParkedMB: 8780,
	}
	if a != want {
		t.Fatalf("stats moved:\n got %+v\nwant %+v", a, want)
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
	for _, c := range env.Pool.Idle() {
		if core.Match(inv.Fn.Image, c.Image) == core.NoMatch {
			f.noMatch.Add(1)
			return c.ID
		}
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
	var vc vclock // pinned at 0: nothing completes, so every request takes the slow path
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

// TestGatewayWarmSteadyStateAllocs pins the tentpole 0-alloc contract:
// the steady-state warm path — completion watermark check, lock-free
// drain, fast-layer claim, L3 reuse, re-registration — performs zero
// heap allocations per request.
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
		t.Fatal("warm-up never reached the fast path")
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

// TestInvokeBodyLimit: both POST /invoke handlers stop reading at
// maxInvokeBody and answer 413, while malformed JSON under the cap
// stays a 400 and a padded body under the cap is served.
func TestInvokeBodyLimit(t *testing.T) {
	s, err := New(Config{
		Functions:    testFunctions(),
		NewScheduler: func() platform.Scheduler { return policy.NewGreedyMatch() },
	})
	if err != nil {
		t.Fatal(err)
	}
	padded := func(n int) string { return `{"fn_id":1,"pad":"` + strings.Repeat("x", n) + `"}` }
	for name, h := range map[string]http.Handler{"Server": s, "Gateway": testGateway(t, GatewayConfig{})} {
		for _, tc := range []struct {
			what, body string
			want       int
		}{
			{"1 MiB body", padded(1 << 20), http.StatusRequestEntityTooLarge},
			{"malformed body", "{", http.StatusBadRequest},
			{"padded body under the cap", padded(maxInvokeBody / 2), http.StatusOK},
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/invoke", strings.NewReader(tc.body)))
			if rec.Code != tc.want {
				t.Errorf("%s, %s: status %d, want %d", name, tc.what, rec.Code, tc.want)
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

// TestGatewayConfigValidation mirrors the Server's constructor checks.
func TestGatewayConfigValidation(t *testing.T) {
	if _, err := NewGateway(GatewayConfig{}); err == nil {
		t.Fatal("empty catalog must fail")
	}
	fns := testFunctions()
	if _, err := NewGateway(GatewayConfig{Functions: fns}); err == nil {
		t.Fatal("nil NewScheduler must fail")
	}
	dup := []*workload.Function{fns[0], fns[0]}
	if _, err := NewGateway(GatewayConfig{
		Functions:    dup,
		NewScheduler: func() platform.Scheduler { return policy.NewGreedyMatch() },
	}); err == nil {
		t.Fatal("duplicate IDs must fail")
	}
}

// TestGatewayShardRounding: shard counts round up to powers of two.
func TestGatewayShardRounding(t *testing.T) {
	g := testGateway(t, GatewayConfig{Shards: 5})
	if n := len(g.state.Load().shards); n != 8 {
		t.Fatalf("5 shards rounded to %d, want 8", n)
	}
}
