package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlcr/internal/api"
	"mlcr/internal/fstartbench"
)

// TestModes serves both modes over HTTP: an invoke, /stats and
// /functions answer, and the shutdown flush writes the metrics file,
// plus, in sim mode, a Chrome trace that parses.
func TestModes(t *testing.T) {
	for mode, shards := range map[string]int{"sim": 1, "gateway": 16} {
		mkSched, mkEvict, err := factories("Greedy-Match", "", 4, 64, mode == "gateway")
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		traceOut, metricsOut := filepath.Join(dir, "trace.json"), filepath.Join(dir, "metrics.prom")
		h, flush, err := newServer(mode, api.GatewayConfig{
			Functions: fstartbench.Functions(), PoolCapacityMB: 4096,
			NewScheduler: mkSched, NewEvictor: mkEvict, Shards: 16,
		}, traceOut, metricsOut)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		var out api.InvokeResponse
		var stats api.GatewayStatsResponse
		var fns []api.FunctionInfo
		resp, err := http.Post(ts.URL+"/invoke", "application/json", strings.NewReader(`{"fn_id":5,"at_ms":1000}`))
		decode(t, resp, err, &out)
		resp, err = http.Get(ts.URL + "/stats")
		decode(t, resp, err, &stats)
		resp, err = http.Get(ts.URL + "/functions")
		decode(t, resp, err, &fns)
		if !out.Cold || out.FnID != 5 || stats.Invocations != 1 || stats.Shards != shards || len(fns) != 13 {
			t.Fatalf("%s: invoke %+v, stats %+v, %d functions", mode, out, stats, len(fns))
		}

		flush()
		metrics, err := os.ReadFile(metricsOut)
		if err != nil || !strings.Contains(string(metrics), "mlcr_gateway_invocations_total 1") ||
			strings.Contains(string(metrics), "mlcr_invocations_total 1") != (mode == "sim") {
			t.Errorf("%s: metrics file (err %v):\n%s", mode, err, metrics)
		}
		var trace struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		b, err := os.ReadFile(traceOut)
		if mode == "sim" && (err != nil || json.Unmarshal(b, &trace) != nil || len(trace.TraceEvents) == 0) {
			t.Errorf("sim: trace file (err %v) does not parse to events: %.200s", err, b)
		}
		if mode == "gateway" && err == nil {
			t.Error("gateway: trace file written")
		}
	}
}

// decode reads a 200 response's JSON body into v.
func decode(t *testing.T, resp *http.Response, err error, v any) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", resp.Request.URL.Path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
