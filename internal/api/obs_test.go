package api

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mlcr/internal/fstartbench"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
)

func get(t *testing.T, ts *httptest.Server, path string) (string, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.Header.Get("Content-Type"), body
}

func TestMetricsEndpoint(t *testing.T) {
	ts := newServer(t)
	invoke(t, ts, InvokeRequest{FnID: 5, AtMS: 1000})
	invoke(t, ts, InvokeRequest{FnID: 5, AtMS: 60000})

	ct, body := get(t, ts, "/metrics")
	if !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text exposition 0.0.4", ct)
	}
	text := string(body)
	for _, want := range []string{
		"mlcr_invocations_total 2",
		"mlcr_cold_starts_total 1",
		`mlcr_warm_starts_total{level="3"} 1`,
		"# TYPE mlcr_startup_seconds summary",
		`mlcr_startup_seconds{quantile="0.5"} `,
		`mlcr_startup_seconds{quantile="0.99"} `,
		"mlcr_startup_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, text)
		}
	}
	// Every non-comment line must be "name[{labels}] value".
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

func TestTraceEndpoint(t *testing.T) {
	ts := newServer(t)
	invoke(t, ts, InvokeRequest{FnID: 5, AtMS: 1000})
	invoke(t, ts, InvokeRequest{FnID: 6, AtMS: 60000})

	ct, body := get(t, ts, "/trace")
	if !strings.HasPrefix(ct, "application/json") {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &trace); err != nil {
		t.Fatalf("/trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("/trace has no events after two invocations")
	}
	kinds := map[string]bool{}
	for _, ce := range trace.TraceEvents {
		kinds[ce["ph"].(string)] = true
	}
	if !kinds["X"] {
		t.Error("trace has no container startup spans")
	}
	if !kinds["M"] {
		t.Error("trace has no thread metadata")
	}
}

func TestAuditEndpoint(t *testing.T) {
	ts := newServer(t)
	invoke(t, ts, InvokeRequest{FnID: 5, AtMS: 1000})
	invoke(t, ts, InvokeRequest{FnID: 6, AtMS: 60000})

	_, body := get(t, ts, "/audit")
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("audit has %d decisions, want 2", len(lines))
	}
	var d struct {
		Seq        int              `json:"seq"`
		Cold       bool             `json:"cold"`
		Candidates []map[string]any `json:"candidates"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &d); err != nil {
		t.Fatalf("audit line not JSON: %v", err)
	}
	// The second decision saw the first invocation's idle container.
	if d.Seq != 1 || d.Cold || len(d.Candidates) == 0 {
		t.Errorf("second decision = %s", lines[1])
	}
}

func TestStatsQuantilesAndReuse(t *testing.T) {
	ts := newServer(t)
	invoke(t, ts, InvokeRequest{FnID: 5, AtMS: 1000})
	invoke(t, ts, InvokeRequest{FnID: 5, AtMS: 60000})
	invoke(t, ts, InvokeRequest{FnID: 6, AtMS: 120000})

	_, body := get(t, ts, "/stats")
	var stats GatewayStatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	q := stats.StartupQuantiles
	if q.P50 <= 0 || q.P50 > q.P95 || q.P95 > q.P99 {
		t.Errorf("quantiles not ordered: %+v", q)
	}
	if stats.ReuseByLevel != (ReuseCounts{L1: 0, L2: 1, L3: 1}) {
		t.Errorf("reuse_by_level = %+v", stats.ReuseByLevel)
	}
	if stats.WarmStarts != 2 {
		t.Errorf("warm_starts = %d, want 2", stats.WarmStarts)
	}
}

// TestObservabilityEndpointsAfterReset: a reset swaps in a fresh
// observer; the endpoints keep working and report an empty run.
func TestObservabilityEndpointsAfterReset(t *testing.T) {
	ts := newServer(t)
	invoke(t, ts, InvokeRequest{FnID: 5, AtMS: 1000})
	resp, err := http.Post(ts.URL+"/reset", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	_, body := get(t, ts, "/metrics")
	if !strings.Contains(string(body), "mlcr_invocations_total 0") {
		t.Errorf("metrics not reset:\n%s", body)
	}
	_, body = get(t, ts, "/audit")
	if len(bytes.TrimSpace(body)) != 0 {
		t.Errorf("audit not reset: %q", body)
	}
}

// TestObservabilityConcurrent hammers invoke/metrics/trace/audit/reset
// concurrently; meaningful under -race (scripts/check.sh runs it so).
func TestObservabilityConcurrent(t *testing.T) {
	ts := newServer(t)
	var wg sync.WaitGroup
	paths := []string{"/metrics", "/trace", "/audit", "/stats"}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, err := http.Get(ts.URL + paths[i])
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 10; j++ {
			body, _ := json.Marshal(InvokeRequest{FnID: 5, AtMS: int64(1000 * (j + 1))})
			resp, err := http.Post(ts.URL+"/invoke", "application/json", bytes.NewReader(body))
			if err == nil {
				resp.Body.Close()
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 3; j++ {
			resp, err := http.Post(ts.URL+"/reset", "application/json", nil)
			if err == nil {
				resp.Body.Close()
			}
		}
	}()
	wg.Wait()
}

// TestMetricsPhaseSummaries: the gateway profiles its hot phases on
// wall time and /metrics exposes them as Prometheus summaries.
func TestMetricsPhaseSummaries(t *testing.T) {
	ts := newServer(t)
	invoke(t, ts, InvokeRequest{FnID: 5, AtMS: 1000})
	invoke(t, ts, InvokeRequest{FnID: 5, AtMS: 60000})

	_, body := get(t, ts, "/metrics")
	text := string(body)
	// The default GreedyMatch scheduler scans Pool.Idle() directly (only
	// the DRL featurizer goes through the indexed pool_scan path), so the
	// phases that fire here are schedule (one per invocation) and dispatch
	// (the second invocation's step runs the first's completion first).
	for _, want := range []string{
		"# TYPE mlcr_phase_seconds summary",
		`mlcr_phase_seconds{phase="schedule",quantile="0.5"}`,
		`mlcr_phase_seconds{phase="schedule",quantile="0.999"}`,
		`mlcr_phase_seconds_count{phase="schedule"} 2`,
		`mlcr_phase_seconds{phase="dispatch",quantile="0.99"}`,
		`mlcr_phase_seconds_sum{phase="dispatch"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestStatsMemoryBounded: the gateway keeps no per-invocation samples —
// the /stats quantiles come from the fixed-footprint HDR, so a
// long-serving gateway cannot grow an unbounded latency slice.
func TestStatsMemoryBounded(t *testing.T) {
	srv, err := NewGateway(simConfig(GatewayConfig{
		Functions:      fstartbench.Functions(),
		PoolCapacityMB: 4096,
		NewScheduler:   func() platform.Scheduler { return policy.NewGreedyMatch() },
	}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	for j := 0; j < 50; j++ {
		invoke(t, ts, InvokeRequest{FnID: 5, AtMS: int64(1000 * (j + 1))})
	}
	plat := srv.state.Load().shards[0].plat
	if n := len(plat.Results().Metrics.Samples()); n != 0 {
		t.Fatalf("gateway retained %d samples, want 0 (bounded mode)", n)
	}
	if got := plat.Results().Metrics.Count(); got != 50 {
		t.Fatalf("aggregate count %d, want 50", got)
	}
	_, body := get(t, ts, "/stats")
	var stats GatewayStatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Invocations != 50 || stats.StartupQuantiles.P50 <= 0 {
		t.Fatalf("stats broken in bounded mode: %+v", stats)
	}
}
