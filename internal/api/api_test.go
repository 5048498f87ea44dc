package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mlcr/internal/evict"
	"mlcr/internal/experiments"
	"mlcr/internal/fstartbench"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/pool"
	"mlcr/internal/trace"
)

// simConfig is what mlcr-server -mode sim serves: one observed shard
// without the fast layer.
func simConfig(cfg GatewayConfig) GatewayConfig {
	cfg.Shards, cfg.FastDepth, cfg.Observe = 1, -1, true
	return cfg
}

func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := NewGateway(simConfig(GatewayConfig{
		Functions:      fstartbench.Functions(),
		PoolCapacityMB: 4096,
		NewScheduler:   func() platform.Scheduler { return policy.NewGreedyMatch() },
		NewEvictor:     func() pool.Evictor { return evict.NewLRU() },
	}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

func invoke(t *testing.T, ts *httptest.Server, req InvokeRequest) InvokeResponse {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/invoke", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invoke status %d", resp.StatusCode)
	}
	var out InvokeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestInvokeColdThenWarm(t *testing.T) {
	ts := newServer(t)
	first := invoke(t, ts, InvokeRequest{FnID: 5, AtMS: 1000})
	if !first.Cold || first.MatchLevel != "no-match" {
		t.Fatalf("first invocation = %+v, want cold", first)
	}
	// Same function a minute later: warm L3 reuse.
	second := invoke(t, ts, InvokeRequest{FnID: 5, AtMS: 60000})
	if second.Cold || second.MatchLevel != "L3-match" {
		t.Fatalf("second invocation = %+v, want warm L3", second)
	}
	if second.StartupMS >= first.StartupMS {
		t.Fatalf("warm start %dms not faster than cold %dms", second.StartupMS, first.StartupMS)
	}
	// Cross-function L2 reuse (F6 extends F5's stack).
	third := invoke(t, ts, InvokeRequest{FnID: 6, AtMS: 120000})
	if third.Cold || third.MatchLevel != "L2-match" {
		t.Fatalf("third invocation = %+v, want warm L2", third)
	}
	if third.Breakdown.CleanMS == 0 {
		t.Fatal("cross-function reuse did not report cleaner time")
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := newServer(t)
	invoke(t, ts, InvokeRequest{FnID: 1, AtMS: 1000})
	invoke(t, ts, InvokeRequest{FnID: 1, AtMS: 90000})
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats GatewayStatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Invocations != 2 || stats.ColdStarts != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Policy != "Greedy-Match" {
		t.Fatalf("policy = %q", stats.Policy)
	}
	if stats.WarmByLevel[3] != 1 {
		t.Fatalf("warm levels = %v", stats.WarmByLevel)
	}
}

// TestServerReplaysSimulator: POSTing a Fig 8 trace to the server with
// explicit timestamps reproduces platform.Run on the same workload. The
// wire carries whole milliseconds, so the workload is rounded to them
// before both replays.
func TestServerReplaysSimulator(t *testing.T) {
	w := fstartbench.BuildOverall(1, fstartbench.OverallOptions{})
	for i := range w.Invocations {
		inv := &w.Invocations[i]
		inv.Arrival = inv.Arrival.Round(time.Millisecond)
		inv.Exec = inv.Exec.Round(time.Millisecond)
	}
	poolMB := experiments.CalibrateLoose(w) * 0.5
	want := platform.New(platform.Config{PoolCapacityMB: poolMB, Evictor: evict.NewLRU()}, policy.NewGreedyMatch()).Run(w)

	s, err := NewGateway(simConfig(GatewayConfig{
		Functions:      fstartbench.Functions(),
		PoolCapacityMB: poolMB,
		NewScheduler:   func() platform.Scheduler { return policy.NewGreedyMatch() },
		Clock:          func() time.Duration { return 0 },
	}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	for _, inv := range w.Invocations {
		invoke(t, ts, InvokeRequest{FnID: inv.Fn.ID, AtMS: inv.Arrival.Milliseconds(), ExecMS: inv.Exec.Milliseconds()})
	}
	_, body := get(t, ts, "/stats")
	var got GatewayStatsResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	m := &want.Metrics
	if got.TotalStartupMS != m.TotalStartup().Milliseconds() || got.ColdStarts != m.ColdStarts() || got.WarmByLevel != m.ByLevel() {
		t.Fatalf("server: %d ms total, %d cold, warm by level %v; platform.Run: %d ms, %d cold, %v",
			got.TotalStartupMS, got.ColdStarts, got.WarmByLevel,
			m.TotalStartup().Milliseconds(), m.ColdStarts(), m.ByLevel())
	}
}

func TestFunctionsEndpoint(t *testing.T) {
	ts := newServer(t)
	resp, err := http.Get(ts.URL + "/functions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fns []FunctionInfo
	if err := json.NewDecoder(resp.Body).Decode(&fns); err != nil {
		t.Fatal(err)
	}
	if len(fns) != 13 {
		t.Fatalf("catalog has %d functions", len(fns))
	}
	if fns[0].ID != 1 || fns[0].Language != "openjdk" {
		t.Fatalf("first entry = %+v", fns[0])
	}
}

func TestPoolEndpoint(t *testing.T) {
	ts := newServer(t)
	invoke(t, ts, InvokeRequest{FnID: 2, AtMS: 1000})
	// The container is busy until startup+exec completes; a later
	// invocation drains the completion, then /pool shows it idle after
	// its own reuse completes. Simplest: query after a far-future
	// invocation of a different-OS function.
	invoke(t, ts, InvokeRequest{FnID: 9, AtMS: 300000})
	resp, err := http.Get(ts.URL + "/pool")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var entries []PoolEntry
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("pool empty after completed invocation")
	}
	if entries[0].FnID != 2 {
		t.Fatalf("pool entry = %+v", entries[0])
	}
}

func TestResetEndpoint(t *testing.T) {
	ts := newServer(t)
	invoke(t, ts, InvokeRequest{FnID: 3, AtMS: 1000})
	resp, err := http.Post(ts.URL+"/reset", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	r2, _ := http.Get(ts.URL + "/stats")
	var stats GatewayStatsResponse
	json.NewDecoder(r2.Body).Decode(&stats)
	r2.Body.Close()
	if stats.Invocations != 0 {
		t.Fatalf("stats after reset = %+v", stats)
	}
}

func TestInvokeErrors(t *testing.T) {
	ts := newServer(t)
	cases := []struct {
		body string
		want int
	}{
		{`{"fn_id": 99}`, http.StatusNotFound},
		{`not json`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/invoke", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("body %q: status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
	// Time travel: the second invocation, before the first, is served at
	// the shard clock.
	invoke(t, ts, InvokeRequest{FnID: 1, AtMS: 50000})
	if out := invoke(t, ts, InvokeRequest{FnID: 1, AtMS: 1000}); out.VirtualTimeMS != 50000 {
		t.Fatalf("time travel served at %d ms, want the shard clock, 50000", out.VirtualTimeMS)
	}
}

// invokeHandlers returns the two gateways mlcr-server builds, each
// fresh and on a virtual clock pinned at zero: -mode sim's observed
// shard without the fast layer, and -mode gateway's default.
func invokeHandlers(t *testing.T) map[string]http.Handler {
	t.Helper()
	var vc vclock
	return map[string]http.Handler{
		"sim":     testGateway(t, simConfig(GatewayConfig{Clock: vc.Clock})),
		"gateway": testGateway(t, GatewayConfig{Clock: vc.Clock}),
	}
}

// postInvoke sends body to h's POST /invoke and returns the status.
func postInvoke(h http.Handler, body string) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/invoke", strings.NewReader(body)))
	return rec.Code
}

// outOfRange are POST /invoke bodies whose at_ms or exec_ms lies outside
// [0, trace.MaxMS]: served, they would overflow Arrival + startup + Exec
// or move the clock before zero.
var outOfRange = []string{
	`{"fn_id":5,"at_ms":1000,"exec_ms":9223372036854}`,
	`{"fn_id":5,"at_ms":9223372036854}`,
	fmt.Sprintf(`{"fn_id":5,"at_ms":%d}`, trace.MaxMS+1),
	fmt.Sprintf(`{"fn_id":5,"at_ms":1000,"exec_ms":%d}`, trace.MaxMS+1),
	`{"fn_id":5,"at_ms":-5}`,
	`{"fn_id":5,"at_ms":1000,"exec_ms":-1}`,
}

// TestInvokeRejectsOutOfRangeTimes: both POST /invoke handlers answer
// 400 to a time outside [0, trace.MaxMS] and stay serviceable: a valid
// invoke afterwards is served.
func TestInvokeRejectsOutOfRangeTimes(t *testing.T) {
	for name, h := range invokeHandlers(t) {
		for _, body := range outOfRange {
			if code := postInvoke(h, body); code != http.StatusBadRequest {
				t.Errorf("%s, %s: status %d, want 400", name, body, code)
			}
		}
		if code := postInvoke(h, `{"fn_id":5,"at_ms":2000}`); code != http.StatusOK {
			t.Errorf("%s: valid invoke after the rejected ones: status %d, want 200", name, code)
		}
	}
}

// FuzzInvokeRequest: no POST /invoke body panics either gateway
// mlcr-server builds or answers outside {200, 400, 404, 413}, and
// whatever a body did, an invoke at at_ms = trace.MaxMS is still served.
func FuzzInvokeRequest(f *testing.F) {
	for _, body := range append([]string{
		`{"fn_id": 99}`,
		`not json`,
		`{"fn_id":5,"at_ms":1000}`,
		`{"fn_id":4,"at_ms":1000,"exec_ms":5000}`,
		`{"fn_id":1,"pad":"xx"}`,
		`{`,
		fmt.Sprintf(`{"fn_id":5,"at_ms":%d,"exec_ms":%d}`, trace.MaxMS, trace.MaxMS),
	}, outOfRange...) {
		f.Add(body)
	}
	last := fmt.Sprintf(`{"fn_id":5,"at_ms":%d}`, trace.MaxMS)
	f.Fuzz(func(t *testing.T, body string) {
		for name, h := range invokeHandlers(t) {
			switch code := postInvoke(h, body); code {
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
			default:
				t.Fatalf("%s, body %q: status %d", name, body, code)
			}
			if code := postInvoke(h, last); code != http.StatusOK {
				t.Fatalf("%s, after body %q: invoke at trace.MaxMS: status %d, want 200", name, body, code)
			}
		}
	})
}

func TestExecOverride(t *testing.T) {
	ts := newServer(t)
	invoke(t, ts, InvokeRequest{FnID: 4, AtMS: 1000, ExecMS: 5000})
	// The container stays busy for the overridden 5s execution: an
	// invocation 2s after the first must cold-start.
	first := invoke(t, ts, InvokeRequest{FnID: 4, AtMS: 3000})
	if !first.Cold {
		t.Fatal("container should still be busy (exec override ignored?)")
	}
}

// TestNewValidation: the sim-mode configuration refuses an empty
// catalog, a missing scheduler factory and duplicate IDs.
func TestNewValidation(t *testing.T) {
	mk := func() platform.Scheduler { return policy.NewLRU() }
	if _, err := NewGateway(simConfig(GatewayConfig{NewScheduler: mk})); err == nil {
		t.Error("empty catalog accepted")
	}
	if _, err := NewGateway(simConfig(GatewayConfig{Functions: fstartbench.Functions()})); err == nil {
		t.Error("nil scheduler factory accepted")
	}
	dup := fstartbench.Functions()
	dup[1].ID = 1
	if _, err := NewGateway(simConfig(GatewayConfig{Functions: dup, NewScheduler: mk})); err == nil {
		t.Error("duplicate IDs accepted")
	}
}

func TestConcurrentInvokes(t *testing.T) {
	// Requests are serialized by the shard lock; fire a few with
	// increasing wall-clock-free timestamps from goroutines and make
	// sure none panic and stats add up. (An arrival behind the shard
	// clock is served at the clock.)
	ts := newServer(t)
	done := make(chan bool, 8)
	for i := 0; i < 8; i++ {
		i := i
		go func() {
			body, _ := json.Marshal(InvokeRequest{FnID: 5, AtMS: int64(1000 * (i + 1))})
			resp, err := http.Post(ts.URL+"/invoke", "application/json", bytes.NewReader(body))
			if err == nil {
				resp.Body.Close()
			}
			done <- err == nil
		}()
	}
	for i := 0; i < 8; i++ {
		if !<-done {
			t.Fatal("request failed")
		}
	}
	resp, _ := http.Get(ts.URL + "/stats")
	var stats GatewayStatsResponse
	json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if stats.Invocations == 0 {
		t.Fatal("no invocations recorded")
	}
}
