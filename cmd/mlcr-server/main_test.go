package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mlcr/internal/api"
	"mlcr/internal/fstartbench"
	"mlcr/internal/mlcr"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
)

// TestModes serves both modes over HTTP: an invoke, /stats and
// /functions answer, and the shutdown flush writes the metrics file,
// plus, in sim mode, a Chrome trace that parses. Both modes take every
// registered scheduler as -policy.
func TestModes(t *testing.T) {
	for mode, shards := range map[string]int{"sim": 1, "gateway": 16} {
		for _, name := range policy.Names() {
			if mk, err := factories(name, ""); err != nil || mk().Name() != name {
				t.Fatalf("%s: factories(%q): %v", mode, name, err)
			}
		}
		mkSched, err := factories("Greedy-Match", "")
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		traceOut, metricsOut := filepath.Join(dir, "trace.json"), filepath.Join(dir, "metrics.prom")
		h, flush, err := newServer(mode, api.GatewayConfig{
			Functions: fstartbench.Functions(), PoolCapacityMB: 4096,
			NewScheduler: mkSched, Shards: 16,
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

// modelFactory saves s where -model can load it and returns the
// factories constructor that serves it.
func modelFactory(t *testing.T, s *mlcr.Scheduler) func() platform.Scheduler {
	t.Helper()
	var buf bytes.Buffer
	path := filepath.Join(t.TempDir(), "m.gob")
	if err := s.Save(&buf); err != nil || os.WriteFile(path, buf.Bytes(), 0o644) != nil {
		t.Fatal("cannot write the model", err)
	}
	mk, err := factories("MLCR", path)
	if err != nil {
		t.Fatal(err)
	}
	return mk
}

// TestServesSavedConfig: -policy MLCR serves the model with the
// configuration it was saved with, memory norm included, and every
// platform gets a scheduler of its own.
func TestServesSavedConfig(t *testing.T) {
	saved := mlcr.New(mlcr.Config{Slots: 3, Dim: 8, Hidden: 16, NormMB: 6726, DeviationMargin: 0.2})
	mk := modelFactory(t, saved)
	if a, b := mk(), mk(); a.(*mlcr.Scheduler).Config() != saved.Config() || a == b {
		t.Fatalf("config %+v, want %+v; or one instance for two platforms", a.(*mlcr.Scheduler).Config(), saved.Config())
	}
}

// TestSimModeResetUnderLoad: both modes serve a saved MLCR model while
// POST /reset swaps generations under concurrent /invoke. Old and new
// generations run side by side, and gateway mode's 16 shards decide at
// once, so each platform gets its own clone over the shared frozen
// weights; one shared instance races on its featurizer and forward
// workspaces under -race. Gateway mode resets every 100 requests, not
// 20, so its clones run ≈370 forward passes, not ≈30.
func TestSimModeResetUnderLoad(t *testing.T) {
	mk := modelFactory(t, mlcr.New(mlcr.Config{Dim: 8, Hidden: 16, NormMB: 4096}))
	for mode, reset := range map[string]int{"sim": 20, "gateway": 100} { // gateway: the default 16 shards
		h, _, err := newServer(mode, api.GatewayConfig{
			Functions: fstartbench.Functions(), PoolCapacityMB: 4096, NewScheduler: mk,
		}, "", "")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 300; i++ {
					body := fmt.Sprintf(`{"fn_id":%d,"at_ms":%d}`, 1+(g+i)%13, i*500)
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/invoke", strings.NewReader(body)))
					if rec.Code != http.StatusOK {
						t.Errorf("%s: invoke %s: status %d", mode, body, rec.Code)
						return
					}
					if i%reset == 0 {
						h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/reset", nil))
					}
				}
			}(g)
		}
		wg.Wait()
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
