package main

// The benchmark's metric and workload tables — the single source the
// report, BENCHMARK.json (checked by -validate and the tests), -compare
// and the README all follow.

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Default and held-out seeds: a later performance claim is measured on
// defaultSeed and must also hold on heldOutSeed, which no one tunes on.
const (
	defaultSeed = 1
	heldOutSeed = 2
)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"http_warm", "POST /invoke over loopback, 13 functions round-robin: at least 99.9% lock-free fast hits, so HTTP+JSON framing does the work and scheduler/pool/evict/nn do none"},
	{"http_churn", "POST /invoke, Zipf over 104 clone functions, MLCR+QBatcher, tight pool: shard lock, Schedule, pool add/evict and cross-function L1/L2 reuse decide the outcome"},
	{"sim_mlcr", "platform.Run of the paper's overall mix under the trained MLCR scheduler: featurize + Q-network forward are over 90% of host time; simulated outcomes repeat exactly"},
	{"sim_cluster", "cluster.Run of an Azure-mix trace on 1000 workers, p2c router, Greedy-Match+LRU: no NN; platform/sim/pool/evict and the cluster fan-out do the work; trace build dominates set-up"},
}

// metricDef is one reported metric. Bound is the regression bound of an
// end-to-end metric (share of the parent's median). Moves names, for a
// per-layer metric, the end-to-end metric and workloads it is predicted
// to move ("metric@workload[,workload]"); everywhere else the
// prediction is no change.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_mean_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "latency_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "startup_ms_mean", Unit: "sim_ms", Better: "lower", Bound: 0.08},
	{Name: "warm_share", Unit: "share", Better: "higher", Bound: 0.05},
}

var perLayer = []metricDef{
	{Name: "api.requests", Unit: "count", Better: "higher", Moves: "ops_per_s@http_warm,http_churn"},
	{Name: "api.failed", Unit: "count", Better: "lower", Moves: "ops_per_s@http_warm,http_churn"},
	{Name: "api.over_limit_share", Unit: "share", Better: "lower", Moves: "ops_per_s@http_warm,http_churn"},
	{Name: "api.latency_p999_us", Unit: "us", Better: "lower", Moves: "latency_p99_us@http_warm,http_churn"},
	{Name: "api.handler_us_mean", Unit: "us", Better: "lower", Moves: "latency_mean_us@http_warm,http_churn"},
	{Name: "api.transport_us_mean", Unit: "us", Better: "lower", Moves: "latency_mean_us@http_warm,http_churn"},
	{Name: "api.invoke_ns_mean", Unit: "ns", Better: "lower", Moves: "ops_per_s@http_warm,http_churn"},
	{Name: "api.do_ns_mean", Unit: "ns", Better: "lower", Moves: "ops_per_s@http_churn"},
	{Name: "api.framing_us_mean", Unit: "us", Better: "lower", Moves: "latency_mean_us@http_warm"},
	{Name: "api.fast_hit_share", Unit: "share", Better: "higher", Moves: "ops_per_s@http_churn"},
	{Name: "api.cold_share", Unit: "share", Better: "lower", Moves: "warm_share@http_churn"},
	{Name: "api.reuse_l1_share", Unit: "share", Better: "higher", Moves: "startup_ms_mean@http_churn"},
	{Name: "api.reuse_l2_share", Unit: "share", Better: "higher", Moves: "startup_ms_mean@http_churn"},
	{Name: "api.reuse_l3_share", Unit: "share", Better: "higher", Moves: "startup_ms_mean@http_churn"},
	{Name: "api.evictions_per_req", Unit: "1/req", Better: "lower", Moves: "warm_share@http_churn"},
	{Name: "api.rejections_per_req", Unit: "1/req", Better: "lower", Moves: "warm_share@http_churn"},
	{Name: "api.fast_expired", Unit: "count", Better: "lower", Moves: "warm_share@http_churn"},
	{Name: "api.pool_used_mb", Unit: "MB", Better: "higher", Moves: "warm_share@http_churn"},
	{Name: "mlcr.schedule_calls", Unit: "count", Better: "lower", Moves: "ops_per_s@sim_mlcr,http_churn"},
	{Name: "mlcr.schedule_us_mean", Unit: "us", Better: "lower", Moves: "ops_per_s@sim_mlcr,http_churn"},
	{Name: "mlcr.cold_choice_share", Unit: "share", Better: "lower", Moves: "warm_share@sim_mlcr,http_churn"},
	{Name: "mlcr.featurize_us_mean", Unit: "us", Better: "lower", Moves: "ops_per_s@sim_mlcr,http_churn"},
	{Name: "mlcr.forward_us_mean", Unit: "us", Better: "lower", Moves: "ops_per_s@sim_mlcr,http_churn"},
	{Name: "mlcr.batch_size_mean", Unit: "count", Better: "higher", Moves: "ops_per_s@http_churn"},
	{Name: "mlcr.train_updates_per_s", Unit: "1/s", Better: "higher", Moves: "setup_s@sim_mlcr,http_churn"},
	{Name: "policy.schedule_calls", Unit: "count", Better: "lower", Moves: "ops_per_s@sim_cluster"},
	{Name: "policy.schedule_ns_mean", Unit: "ns", Better: "lower", Moves: "ops_per_s@sim_cluster"},
	{Name: "policy.cold_choice_share", Unit: "share", Better: "lower", Moves: "warm_share@sim_cluster"},
	{Name: "pool.match_ns_mean", Unit: "ns", Better: "lower", Moves: "ops_per_s@sim_cluster,sim_mlcr"},
	{Name: "pool.match_candidates_mean", Unit: "count", Better: "higher", Moves: "startup_ms_mean@sim_cluster,sim_mlcr,http_churn"},
	{Name: "pool.adds", Unit: "count", Better: "higher", Moves: "ops_per_s@sim_cluster"},
	{Name: "pool.evictions", Unit: "count", Better: "lower", Moves: "warm_share@sim_cluster,sim_mlcr,http_churn"},
	{Name: "pool.rejections", Unit: "count", Better: "lower", Moves: "warm_share@sim_cluster,sim_mlcr,http_churn"},
	{Name: "pool.expirations", Unit: "count", Better: "lower", Moves: "warm_share@sim_cluster,sim_mlcr,http_churn"},
	{Name: "pool.peak_used_mb", Unit: "MB", Better: "higher", Moves: "warm_share@sim_cluster,sim_mlcr,http_churn"},
	{Name: "evict.pick_calls", Unit: "count", Better: "lower", Moves: "ops_per_s@sim_cluster"},
	{Name: "evict.pick_ns_mean", Unit: "ns", Better: "lower", Moves: "ops_per_s@sim_cluster"},
	{Name: "evict.hook_calls", Unit: "count", Better: "lower", Moves: "ops_per_s@sim_cluster"},
	{Name: "evict.hook_ns_mean", Unit: "ns", Better: "lower", Moves: "ops_per_s@sim_cluster"},
	{Name: "evict.refused_share", Unit: "share", Better: "lower", Moves: "warm_share@sim_cluster"},
	{Name: "platform.self_ns_per_inv", Unit: "ns", Better: "lower", Moves: "ops_per_s@sim_cluster"},
	{Name: "platform.containers_created", Unit: "count", Better: "lower", Moves: "warm_share@sim_cluster,sim_mlcr"},
	{Name: "platform.peak_alive_mb", Unit: "MB", Better: "lower", Moves: "peak_rss_mb@sim_cluster"},
	{Name: "cluster.route_ns_per_inv", Unit: "ns", Better: "lower", Moves: "ops_per_s@sim_cluster"},
	{Name: "cluster.worker_sim_s", Unit: "s", Better: "lower", Moves: "ops_per_s@sim_cluster"},
	{Name: "cluster.routed_imbalance", Unit: "ratio", Better: "lower", Moves: "latency_p99_us@sim_cluster"},
	{Name: "workload.build_s", Unit: "s", Better: "lower", Moves: "setup_s@sim_cluster"},
	{Name: "workload.build_ns_per_inv", Unit: "ns", Better: "lower", Moves: "setup_s@sim_cluster"},
	{Name: "workload.functions", Unit: "count", Better: "lower", Moves: "peak_rss_mb@sim_cluster"},
	{Name: "workload.rss_after_build_mb", Unit: "MB", Better: "lower", Moves: "peak_rss_mb@sim_cluster"},
	{Name: "proc.cpu_us_per_op", Unit: "us", Better: "lower", Moves: "ops_per_s@http_warm,http_churn,sim_mlcr,sim_cluster"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Moves: "ops_per_s@http_warm,http_churn,sim_mlcr,sim_cluster"},
}

func findMetric(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].Name == name {
			return &defs[i]
		}
	}
	return nil
}

// metricValue is one measured metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one-line JSON object a workload run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill turns measured values into the result's metric map: exactly the
// metrics of defs, each once, with its table unit. A metric a workload
// does not exercise reads 0; a value missing from the table, or not a
// finite number, is a bug in the benchmark and fails the run.
func (r *result) fill(defs []metricDef, values map[string]float64) error {
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if findMetric(defs, name) == nil {
			return fmt.Errorf("metric %s is measured but not in the table", name)
		}
	}
	return nil
}

func (r *result) line() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return string(b)
}

// table renders the metrics of defs by name with their units.
func (r *result) table(defs []metricDef) string {
	var sb strings.Builder
	for _, d := range defs {
		fmt.Fprintf(&sb, "  %-30s %16.6g %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	return sb.String()
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile[T int32 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
