// Package cluster models the multi-worker deployment of Figure 4: a
// front-end router distributes function invocations over a cluster of
// workers, each of which owns a reserved warm-pool slice and runs its own
// scheduler instance. Containers never migrate between workers, so a
// function can only reuse warm containers on the worker it is routed to —
// the locality constraint that makes routing policy part of the warm-start
// problem. Routing itself is a registry of deterministic, shardable
// Routers (consistent hashing, power-of-two-choices, and the classic
// round-robin / by-function / least-loaded policies); see router.go and
// DESIGN.md §13.
package cluster

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"mlcr/internal/obs"
	"mlcr/internal/obs/perf"
	"mlcr/internal/platform"
	"mlcr/internal/pool"
	"mlcr/internal/runner"
	"mlcr/internal/workload"
)

// Config parameterizes a cluster run.
type Config struct {
	// Workers is the cluster size (must be >= 1).
	Workers int
	// PoolCapacityMB is the total warm-pool budget, split evenly across
	// workers (<= 0 means unlimited on every worker).
	PoolCapacityMB float64
	// Router names the registered front-end routing policy (see
	// RouterNames()); empty means "round-robin". Unknown names panic.
	Router string
	// RouterSeed salts hash-based routers (ring vnode placement, p2c
	// probe sequences); 0 is as deterministic as any other value.
	RouterSeed int64
	// NewScheduler builds one scheduler per worker. With Parallelism != 1
	// it is called from concurrent goroutines (one per worker) and must
	// return an instance no other worker uses; a trained MLCR scheduler
	// is distributed by cloning it per worker.
	NewScheduler func(worker int) platform.Scheduler
	// NewEvictor builds one pool evictor per worker. The same concurrency
	// contract as NewScheduler applies. When nil, platform.New pairs each
	// worker's scheduler with its default evictor, the one the gateway's
	// shards take too.
	NewEvictor func(worker int) pool.Evictor
	// Parallelism bounds concurrency for both phases of a run: routing
	// shards (as far as the router's Shards() contract allows) and
	// worker simulations. <=0 means GOMAXPROCS, 1 forces sequential.
	// Results are bit-identical at any setting.
	Parallelism int
	// Obs, when non-nil, observes the front end: Obs.Perf, when
	// non-nil, times each front-end routing decision (perf.PhaseRoute):
	// parallel routing shards record into private profilers built from
	// its clock and merge into it at the end-of-route barrier, so the
	// caller-owned profiler is never written concurrently, and
	// Result.ExportMetrics exports it. Worker simulations do not share
	// Obs — per-worker observers stay per-platform.
	Obs *obs.Observer
}

// Result aggregates a cluster run.
type Result struct {
	// PerWorker holds each worker's platform results.
	PerWorker []*platform.RunResult
	// Routed counts invocations per worker.
	Routed []int
}

// TotalStartup sums startup latency across workers.
func (r Result) TotalStartup() time.Duration {
	var s time.Duration
	for _, w := range r.PerWorker {
		s += w.Metrics.TotalStartup()
	}
	return s
}

// ColdStarts sums cold starts across workers.
func (r Result) ColdStarts() int {
	n := 0
	for _, w := range r.PerWorker {
		n += w.Metrics.ColdStarts()
	}
	return n
}

// Run partitions the workload across workers per the routing policy and
// replays each partition on its worker's platform. Workers are
// independent simulations: the cluster-level metrics are exact because
// workers share nothing but the arrival stream. Routing fans out first
// over the router's shards (see the Router contract), the partitions
// are materialized in one counting pre-pass, and worker simulations
// then execute concurrently up to Config.Parallelism, each building
// its scheduler, evictor and platform in its own goroutine, with
// results collected in worker order. Every phase is bit-identical at
// any Parallelism.
func Run(cfg Config, w workload.Workload) Result {
	if cfg.Workers < 1 {
		panic("cluster: Workers must be >= 1")
	}
	if cfg.NewScheduler == nil {
		panic("cluster: NewScheduler required")
	}
	perPool := cfg.PoolCapacityMB
	if perPool > 0 {
		perPool /= float64(cfg.Workers)
	}

	if cfg.Router == "" {
		cfg.Router = "round-robin"
	}
	router, err := NewRouter(cfg.Router, RouterConfig{Workers: cfg.Workers, Seed: cfg.RouterSeed})
	if err != nil {
		panic(err)
	}
	// The catalogue is validated here, once per run. Workers receive
	// their partition only, which platform.Run validates, so a worker
	// costs what its share of the trace costs, not workers × catalogue.
	if err := (workload.Workload{Name: w.Name, Functions: w.Functions}).Validate(); err != nil {
		panic("cluster: " + err.Error())
	}
	prof := cfg.Obs.Profiler()
	targets := routeTargets(router, w, cfg.Workers, cfg.Parallelism, prof)
	parts, routed := partition(w, targets, cfg.Workers)

	res := Result{Routed: routed}
	res.PerWorker = runner.Map(cfg.Workers, runner.Options{Parallelism: cfg.Parallelism}, func(i int) *platform.RunResult {
		var ev pool.Evictor
		if cfg.NewEvictor != nil {
			ev = cfg.NewEvictor(i)
		}
		p := platform.New(platform.Config{PoolCapacityMB: perPool, Evictor: ev}, cfg.NewScheduler(i))
		sub := workload.Workload{Name: fmt.Sprintf("%s/w%d", w.Name, i), Invocations: parts[i]}
		return p.Run(sub)
	})
	return res
}

// Route runs only the front-end of a cluster run — router resolution,
// the sharded decision loop, and the counting-pre-pass partition —
// and returns the per-worker routed counts. It is the measurement
// surface for routing throughput (BenchmarkClusterRoute and bench/'s
// cluster.route_ns_per_inv): same code path as Run, no worker
// simulation.
func Route(name string, cfg RouterConfig, w workload.Workload, parallelism int, prof *perf.Profiler) []int {
	r := MustNewRouter(name, cfg)
	targets := routeTargets(r, w, cfg.Workers, parallelism, prof)
	_, routed := partition(w, targets, cfg.Workers)
	return routed
}

// routeTargets runs the router over the invocation stream and returns
// the chosen worker per stream index. The fan-out follows the router's
// Shards() contract: sequential routers get the classic single loop;
// fixed-shard routers get one goroutine per interleaved sub-stream;
// stateless routers are chunked into contiguous blocks sized by the
// effective parallelism (any chunking yields the same targets, so the
// block count is free to follow the machine). Each parallel task
// records route spans into a private profiler merged into prof at the
// end-of-route barrier.
func routeTargets(router Router, w workload.Workload, workers, parallelism int, prof *perf.Profiler) []uint32 {
	router.Begin(w)
	n := len(w.Invocations)
	targets := make([]uint32, n)

	routeSpan := func(p *perf.Profiler, shard, i int) {
		sp := p.Start(perf.PhaseRoute)
		t := router.Route(shard, i, &w.Invocations[i])
		sp.End()
		if uint(t) >= uint(workers) {
			panic(fmt.Sprintf("cluster: router %q routed invocation %d to worker %d of %d", router.Name(), i, t, workers))
		}
		targets[i] = uint32(t)
	}

	switch shards := router.Shards(); {
	case n == 0:
		// Nothing to route.
	case shards == 1:
		for i := 0; i < n; i++ {
			routeSpan(prof, 0, i)
		}
	case shards == ShardsStateless:
		blocks := parallelism
		if blocks <= 0 {
			blocks = runtime.GOMAXPROCS(0)
		}
		if blocks > n {
			blocks = n
		}
		subProfs := shardProfilers(prof, blocks)
		runner.Map(blocks, runner.Options{Parallelism: parallelism}, func(b int) struct{} {
			lo, hi := b*n/blocks, (b+1)*n/blocks
			p := subProf(subProfs, prof, b)
			for i := lo; i < hi; i++ {
				routeSpan(p, b, i)
			}
			return struct{}{}
		})
		mergeProfilers(prof, subProfs)
	default:
		subProfs := shardProfilers(prof, shards)
		runner.Map(shards, runner.Options{Parallelism: parallelism}, func(s int) struct{} {
			p := subProf(subProfs, prof, s)
			for i := s; i < n; i += shards {
				routeSpan(p, s, i)
			}
			return struct{}{}
		})
		mergeProfilers(prof, subProfs)
	}
	return targets
}

// shardProfilers builds one private profiler per parallel routing task
// (nil slice when profiling is disabled or a single task would write
// prof directly anyway).
func shardProfilers(prof *perf.Profiler, tasks int) []*perf.Profiler {
	if prof == nil || tasks <= 1 {
		return nil
	}
	out := make([]*perf.Profiler, tasks)
	for i := range out {
		out[i] = perf.New(prof.Clock())
	}
	return out
}

// subProf picks task i's profiler: the private shard profiler when
// fanning out, prof itself when running single-task.
func subProf(subs []*perf.Profiler, prof *perf.Profiler, i int) *perf.Profiler {
	if subs == nil {
		return prof
	}
	return subs[i]
}

// mergeProfilers folds the shard profilers back into prof at the
// end-of-route barrier. HDR merging is commutative, so the result does
// not depend on shard completion order.
func mergeProfilers(prof *perf.Profiler, subs []*perf.Profiler) {
	for _, s := range subs {
		prof.Merge(s)
	}
}

// partition materializes per-worker invocation streams from the routed
// targets in one counting pre-pass: worker slices are carved out of a
// single flat backing array pre-sized exactly, so partitioning costs
// four allocations per run regardless of worker count or invocation
// count — no append-grow churn across 1000+ slices. Per-worker Seq is
// the invocation's position in its partition, preserving arrival order
// (stream index order) within every worker.
func partition(w workload.Workload, targets []uint32, workers int) ([][]workload.Invocation, []int) {
	routed := make([]int, workers)
	for _, t := range targets {
		routed[t]++
	}
	flat := make([]workload.Invocation, len(targets))
	parts := make([][]workload.Invocation, workers)
	starts := make([]int, workers)
	next := make([]int, workers)
	off := 0
	for k := 0; k < workers; k++ {
		parts[k] = flat[off : off+routed[k]]
		starts[k] = off
		next[k] = off
		off += routed[k]
	}
	for i := range w.Invocations {
		t := targets[i]
		j := next[t]
		next[t] = j + 1
		cp := w.Invocations[i]
		cp.Seq = j - starts[t]
		flat[j] = cp
	}
	return parts, routed
}

// ExportMetrics derives the cluster's series: one
// mlcr_cluster_routed_total{worker} counter per worker, read off
// Routed, the phase summaries of prof, the profiler the run's Obs.Perf
// routed under (nil for none), and every series of the workers'
// RunResult.ExportMetrics once, summed across workers — counters and
// gauges add, startup summaries merge their histograms.
func (r Result) ExportMetrics(prof *perf.Profiler) []obs.Metric {
	out := obs.PhaseMetrics(prof)
	at := map[string]int{}
	for _, pr := range r.PerWorker {
		for _, m := range pr.ExportMetrics() {
			i, ok := at[m.Name]
			switch {
			case !ok:
				at[m.Name] = len(out)
				out = append(out, m)
			case m.HDR != nil:
				out[i].HDR.Merge(m.HDR)
			default:
				out[i].Value += m.Value
			}
		}
	}
	for w, n := range r.Routed {
		out = append(out, obs.Metric{
			Name: `mlcr_cluster_routed_total{worker="` + strconv.Itoa(w) + `"}`,
			Help: "Invocations routed to each cluster worker.",
			Type: obs.TypeCounter, Value: float64(n),
		})
	}
	return out
}
