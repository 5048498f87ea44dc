package experiments

import (
	"fmt"
	"time"

	"mlcr/internal/cluster"
	"mlcr/internal/evict"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/pool"
	"mlcr/internal/report"
	"mlcr/internal/workload"
)

// ClusterCell is one routing × scheduler pairing's result on a cluster
// run: the front-end policy decides which worker each invocation lands
// on, the scheduler decides container reuse inside every worker.
type ClusterCell struct {
	Router       string
	Scheduler    string
	TotalStartup time.Duration
	AvgStartup   time.Duration
	ColdStarts   int
	// Spread is max/min invocations routed to any worker (0 when a
	// worker received nothing) — the load-balance summary of the
	// routing policy.
	Spread float64
}

// ClusterGridResult is the routing × scheduler comparison at one
// cluster size — the deployment-level companion of the scheduler ×
// evictor EvictionGrid: routing decides which worker's warm pool an
// invocation can reuse, so the front-end policy bounds what any
// per-worker scheduler can recover (Figure 4's deployment model).
type ClusterGridResult struct {
	Workers    int
	PoolMB     float64
	Routers    []string
	Schedulers []string
	Cells      []ClusterCell // row-major: routers × schedulers
}

// Cell returns the cell for (router, scheduler), or nil.
func (r ClusterGridResult) Cell(router, sched string) *ClusterCell {
	for i := range r.Cells {
		if r.Cells[i].Router == router && r.Cells[i].Scheduler == sched {
			return &r.Cells[i]
		}
	}
	return nil
}

// ClusterGrid runs every routing × scheduler pairing over the workload
// on a workers-sized cluster with a shared pool budget. Empty router
// or scheduler lists default to the full cluster.RouterNames() registry
// and policy.GridSchedulers(). Every pairing constructs fresh
// per-worker scheduler instances (seeded from opts.Seed), so the grid
// is bit-identical at any Options.Parallelism.
func ClusterGrid(w workload.Workload, workers int, poolMB float64, routers, scheds []string, opts Options) ClusterGridResult {
	opts = opts.WithDefaults()
	if len(routers) == 0 {
		routers = cluster.RouterNames()
	}
	if len(scheds) == 0 {
		scheds = policy.GridSchedulers()
	}
	out := ClusterGridResult{Workers: workers, PoolMB: poolMB, Routers: routers, Schedulers: scheds}
	var newEvictor func(int) pool.Evictor
	if name := opts.Evictor; name != "" {
		if _, err := evict.New(name); err != nil {
			panic("experiments: " + err.Error())
		}
		newEvictor = func(int) pool.Evictor { return evict.MustNew(name) }
	}

	for _, rn := range routers {
		if _, err := cluster.NewRouter(rn, cluster.RouterConfig{Workers: workers}); err != nil {
			panic("experiments: " + err.Error())
		}
		for _, sn := range scheds {
			if _, err := policy.New(sn, opts.Seed); err != nil {
				panic("experiments: " + err.Error())
			}
			res := cluster.Run(cluster.Config{
				Workers:        workers,
				PoolCapacityMB: poolMB,
				Router:         rn,
				RouterSeed:     opts.Seed,
				NewScheduler: func(worker int) platform.Scheduler {
					sched, _ := policy.New(sn, opts.Seed+int64(worker))
					return sched
				},
				NewEvictor:  newEvictor,
				Parallelism: opts.Parallelism,
			}, w)
			cell := ClusterCell{Router: rn, Scheduler: sn}
			var total time.Duration
			count := 0
			for _, pr := range res.PerWorker {
				total += pr.Metrics.TotalStartup()
				count += pr.Metrics.Count()
				cell.ColdStarts += pr.Metrics.ColdStarts()
			}
			cell.TotalStartup = total
			if count > 0 {
				cell.AvgStartup = total / time.Duration(count)
			}
			cell.Spread = routedSpread(res.Routed)
			out.Cells = append(out.Cells, cell)
		}
	}
	return out
}

// routedSpread is max/min routed invocations across workers (0 when
// any worker received nothing — an unbounded imbalance).
func routedSpread(routed []int) float64 {
	if len(routed) == 0 {
		return 0
	}
	min, max := routed[0], routed[0]
	for _, n := range routed[1:] {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if min == 0 {
		return 0
	}
	return float64(max) / float64(min)
}

// Table renders the grid, one row per routing × scheduler pairing.
func (r ClusterGridResult) Table() *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("routing × scheduler grid (%d workers, pool = %.0f MB)", r.Workers, r.PoolMB),
		Header: []string{"router", "scheduler", "total startup", "avg startup",
			"cold starts", "spread"},
	}
	for _, c := range r.Cells {
		spread := "∞"
		if c.Spread > 0 {
			spread = fmt.Sprintf("%.2f", c.Spread)
		}
		t.AddRow(c.Router, c.Scheduler, c.TotalStartup, c.AvgStartup, c.ColdStarts, spread)
	}
	return t
}
