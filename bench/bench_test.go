package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mlcr/internal/api"
)

// TestGeneratorsAreDeterministic: the same seed gives byte-identical
// inputs, another seed gives other inputs.
func TestGeneratorsAreDeterministic(t *testing.T) {
	gens := map[string]func(seed int64) string{
		"http_warm": func(seed int64) string {
			_, reqs := warmRequests(seed, 2000)
			buf, _ := buildRequestBytes(reqs, false)
			return bytesDigest(buf)
		},
		"http_churn": func(seed int64) string {
			_, reqs := churnRequests(seed, 2000)
			buf, _ := buildRequestBytes(reqs, false)
			return bytesDigest(buf)
		},
		"sim_mlcr":    func(seed int64) string { return traceDigest(overallTrace(seed, 2000)) },
		"sim_cluster": func(seed int64) string { return traceDigest(azureTrace(seed, 2000)) },
	}
	for _, w := range workloadDefs {
		gen := gens[w.Name]
		if gen == nil {
			t.Fatalf("workload %s has no generator under test", w.Name)
		}
		if a, b := gen(defaultSeed), gen(defaultSeed); a != b {
			t.Errorf("%s: seed %d gave %s, then %s", w.Name, defaultSeed, a, b)
		}
		if a, b := gen(defaultSeed), gen(heldOutSeed); a == b {
			t.Errorf("%s: seeds %d and %d gave the same inputs", w.Name, defaultSeed, heldOutSeed)
		}
	}
}

func TestTraceGeneratorsGiveExactCounts(t *testing.T) {
	for _, n := range []int{1, 500, 5000} {
		if got := len(azureTrace(defaultSeed, n).Invocations); got != n {
			t.Errorf("azureTrace(%d) has %d invocations", n, got)
		}
		if got := len(overallTrace(defaultSeed, n).Invocations); got != n {
			t.Errorf("overallTrace(%d) has %d invocations", n, got)
		}
	}
}

// TestManifestMatchesTables: BENCHMARK.json at the repository root says
// what the benchmark's tables say, within the manifest's limits.
func TestManifestMatchesTables(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	if err := validateFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	if len(endToEnd) != 7 || len(perLayer) != 52 {
		t.Errorf("the benchmark defines %d end-to-end and %d per-layer metrics, README.md documents 7 and 52", len(endToEnd), len(perLayer))
	}
}

func TestValidateRejectsADriftedManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	drifted := bytes.Replace(data, []byte(`"ops_per_s"`), []byte(`"req_per_s"`), 1)
	path := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(path, drifted, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := validateFile(path); err == nil {
		t.Error("a manifest naming a metric the benchmark does not emit validated")
	}
}

// smokeConfig is every workload's real code path at 1/200 of the
// issue's sizes (1/10 of a lap), one set-up, one training episode.
func smokeConfig(workload string, trace bool) config {
	cfg := defaultConfig()
	cfg.workload, cfg.trace = workload, trace
	cfg.scale, cfg.seconds, cfg.setups, cfg.episodes, cfg.warmup = 0.1, 0.2, 1, 1, 50*time.Millisecond
	return cfg
}

// TestSmokeEveryWorkload runs each workload untraced and traced and
// holds the result to the contract: output checks pass, nothing fails,
// every metric of the table is emitted exactly once, and no end-to-end
// metric is 0.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloadDefs {
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(w.Name, trace)
			if trace {
				cfg.traceOut = filepath.Join(t.TempDir(), "spans.jsonl")
			}
			r, err := runWorkload(&cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !r.res.Correct || r.res.Failed != 0 || r.res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v",
					w.Name, trace, r.res.Correct, r.res.Attempted, r.res.Failed, r.notes)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(r.res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, table has %d", w.Name, trace, len(r.res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := r.res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or in unit %q", w.Name, trace, d.Name, v.Unit)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, v.Value)
				}
			}
			var back result
			if err := json.Unmarshal([]byte(r.res.line()), &back); err != nil || len(back.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: result line does not round-trip: %v", w.Name, trace, err)
			}
			if trace {
				checkSpans(t, w.Name, cfg.traceOut)
				if o := r.values["trace.overhead_share"]; o > 1 {
					t.Errorf("%s: trace.overhead_share %v", w.Name, o)
				}
			}
		}
	}
}

func checkSpans(t *testing.T, workload, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("%s: span line %q: %v", workload, line, err)
		}
		if s.End < s.Start {
			t.Errorf("%s: span %+v ends before it starts", workload, s)
		}
		names[s.Name] = true
	}
	if !names["schedule"] {
		t.Errorf("%s: no schedule span among %v", workload, names)
	}
}

// TestLayersSeparate: the workloads exercise the layers they were chosen
// for (the issue's acceptance shapes, at smoke scale).
func TestLayersSeparate(t *testing.T) {
	layer := func(workload string) map[string]float64 {
		cfg := smokeConfig(workload, true)
		r, err := runWorkload(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.values
	}
	if v := layer("http_warm"); v["api.fast_hit_share"] < 0.99 || v["mlcr.schedule_calls"] != 0 {
		t.Errorf("http_warm: fast hits %v, mlcr calls %v", v["api.fast_hit_share"], v["mlcr.schedule_calls"])
	}
	if v := layer("http_churn"); v["api.fast_hit_share"] > 0.5 || v["api.evictions_per_req"] <= 0.05 ||
		v["api.reuse_l1_share"]+v["api.reuse_l2_share"] <= 0.03 || v["mlcr.schedule_calls"] == 0 {
		t.Errorf("http_churn: fast hits %v, evictions/req %v, L1+L2 %v, mlcr calls %v", v["api.fast_hit_share"],
			v["api.evictions_per_req"], v["api.reuse_l1_share"]+v["api.reuse_l2_share"], v["mlcr.schedule_calls"])
	}
	if v := layer("sim_cluster"); v["mlcr.schedule_calls"] != 0 || v["policy.schedule_calls"] == 0 || v["cluster.route_ns_per_inv"] <= 0 {
		t.Errorf("sim_cluster: mlcr calls %v, policy calls %v, route %v", v["mlcr.schedule_calls"], v["policy.schedule_calls"], v["cluster.route_ns_per_inv"])
	}
}

// TestWrongAnswersFailTheLap: a server that echoes the wrong function,
// or whose /stats disagree with what the clients saw, fails the lap.
func TestWrongAnswersFailTheLap(t *testing.T) {
	_, reqs := warmRequests(defaultSeed, 50)
	serve := func(echo func(fn int) int, invocations int) http.Handler {
		mux := http.NewServeMux()
		mux.HandleFunc("POST /reset", func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte("{}")) })
		mux.HandleFunc("POST /invoke", func(w http.ResponseWriter, r *http.Request) {
			var req api.InvokeRequest
			json.NewDecoder(r.Body).Decode(&req)
			json.NewEncoder(w).Encode(api.InvokeResponse{FnID: echo(req.FnID)})
		})
		mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) {
			var s api.GatewayStatsResponse
			s.Invocations, s.WarmStarts, s.ReuseByLevel.L3 = invocations, invocations, invocations
			json.NewEncoder(w).Encode(s)
		})
		return mux
	}
	same := func(fn int) int { return fn }
	cases := []struct {
		name    string
		handler http.Handler
		failed  int
		wantErr bool
	}{
		{"right answers", serve(same, len(reqs)), 0, false},
		{"wrong fn_id", serve(func(fn int) int { return fn + 1 }, len(reqs)), len(reqs), true},
		{"stats miscount", serve(same, len(reqs)-1), 0, true},
	}
	for _, c := range cases {
		r, err := newRig(c.handler, reqs, false)
		if err != nil {
			t.Fatal(err)
		}
		lap, err := r.lap(time.Time{})
		r.close()
		if (err != nil) != c.wantErr || lap.failed != c.failed {
			t.Errorf("%s: failed=%d err=%v, want failed=%d err=%v", c.name, lap.failed, err, c.failed, c.wantErr)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v", q1, q3)
	}
}

// set builds a result set with the given ops_per_s and startup_ms_mean
// values on every workload, one run per value.
func set(t *testing.T, dir, name string, failed int, opsPerS, startupMS []float64) string {
	t.Helper()
	s := resultSet{Seed: defaultSeed, Scale: 1, Seconds: 10}
	for _, w := range workloadDefs {
		for i := range opsPerS {
			m := map[string]metricValue{}
			for _, d := range endToEnd {
				m[d.Name] = metricValue{Value: 1, Unit: d.Unit}
			}
			m["ops_per_s"] = metricValue{Value: opsPerS[i], Unit: "1/s"}
			m["startup_ms_mean"] = metricValue{Value: startupMS[i], Unit: "sim_ms"}
			s.Runs = append(s.Runs, runRecord{Workload: w.Name, Seed: defaultSeed + int64(i),
				Result: result{Correct: true, Attempted: 1000, Failed: failed, Metrics: m}})
		}
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareAppliesTheBounds(t *testing.T) {
	dir := t.TempDir()
	steady := []float64{100, 101, 102, 103}
	base := set(t, dir, "base.json", 0, steady, steady)
	cases := []struct {
		name   string
		path   string
		wantOK bool
		want   string
	}{
		{"same", set(t, dir, "same.json", 0, steady, steady), true, ""},
		{"slower", set(t, dir, "slow.json", 0, []float64{60, 61, 62, 63}, steady), false, "REGRESSION"},
		{"more failures", set(t, dir, "fail.json", 3, steady, steady), false, "failed share rose"},
		{"noisy", set(t, dir, "noisy.json", 0, []float64{60, 95, 105, 140}, steady), true, "unresolved"},
		// Within the 5% bound, but simulated outcomes on sim_* compare exactly.
		{"replay outcome drifts", set(t, dir, "drift.json", 0, steady, []float64{101, 102, 103, 104}), false, "REGRESSION"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		ok, err := compareFiles(&out, base, c.path)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.wantOK || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: ok=%v, want %v with %q in:\n%s", c.name, ok, c.wantOK, c.want, out.String())
		}
	}
}
