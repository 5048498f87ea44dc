package experiments

import (
	"fmt"
	"runtime"
	"time"

	"mlcr/internal/cluster"
	"mlcr/internal/obs/perf"
	"mlcr/internal/platform"
	"mlcr/internal/pool"
	"mlcr/internal/report"
	"mlcr/internal/runner"
	"mlcr/internal/workload"
)

// SweepCell is one router × setup × evictor run of a Sweep, reduced
// over the cluster's workers.
type SweepCell struct {
	Router  string
	Setup   string
	Evictor string // the evictor the pools ran, resolved when the setup's own
	// Invocations, TotalStartup, ColdStarts and the pool counters sum
	// the workers; P99Startup reads their merged startup histogram.
	Invocations  int
	TotalStartup time.Duration
	P99Startup   time.Duration
	ColdStarts   int
	Evictions    int
	Rejections   int
	Expirations  int
	// Busiest is the most invocations routed to one worker; Spread is
	// max/min routed invocations across workers (0 when a worker
	// received nothing — an unbounded imbalance).
	Busiest int
	Spread  float64
}

// AvgStartup is the mean startup latency over the cell's invocations.
func (c SweepCell) AvgStartup() time.Duration {
	if c.Invocations == 0 {
		return 0
	}
	return c.TotalStartup / time.Duration(c.Invocations)
}

// SweepResult is one comparison: every cell of a Sweep, row-major over
// routers × setups × evictors.
type SweepResult struct {
	Workload string
	Workers  int
	PoolMB   float64
	Cells    []SweepCell
}

// Sweep replays the workload on a workers-sized cluster (cluster.Run,
// the pool budget poolMB split across workers) once per router × setup
// × evictor cell: the paper's comparisons of reuse policies (Fig 8),
// eviction pairings (Fig 1, Fig 10) and front-end placement (Figure 4's
// deployment, where routing decides which warm pool an invocation can
// reuse). One worker is the single-platform simulator, bit for bit.
// Empty routers mean round-robin (immaterial on one worker); an empty
// evictor, or no evictors, keeps each setup's own pairing. Router
// hashing is salted with opts.Seed. The cells fan out through
// runner.Map, each building fresh schedulers per worker, so the result
// is bit-identical at any opts.Parallelism; a scheduler instance shared
// between runs or workers panics (runner.Guard).
func Sweep(w workload.Workload, workers int, poolMB float64, routers []string, setups []Setup, evictors []string, opts Options) SweepResult {
	if len(routers) == 0 {
		routers = []string{"round-robin"}
	}
	if len(evictors) == 0 {
		evictors = []string{""}
	}
	type cell struct {
		router string
		setup  Setup
	}
	var cells []cell
	for _, rn := range routers {
		for _, s := range setups {
			for _, en := range evictors {
				cells = append(cells, cell{rn, WithEvictor([]Setup{s}, en)[0]})
			}
		}
	}
	// Cells take the parallelism first; a sweep of fewer cells than
	// cores hands the rest to each cluster's workers.
	p := opts.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	inner := max(1, p/max(1, len(cells)))

	var guard runner.Guard
	out := SweepResult{Workload: w.Name, Workers: workers, PoolMB: poolMB}
	out.Cells = runner.Map(len(cells), opts.runnerOpts(), func(i int) SweepCell {
		c := cells[i]
		cfg := cluster.Config{
			Workers: workers, PoolCapacityMB: poolMB, Router: c.router, RouterSeed: opts.Seed,
			NewScheduler: func(k int) platform.Scheduler {
				sched := c.setup.New(k)
				guard.Claim(sched, i*workers+k, c.setup.Name)
				return sched
			},
			NewEvictor:  func(int) pool.Evictor { return c.setup.NewEvictor() },
			Parallelism: inner,
		}
		return CellOf(c.router, c.setup.Name, cluster.Run(cfg, w))
	})
	return out
}

// CellOf sums a cluster run's workers into one SweepCell.
func CellOf(router, setup string, res cluster.Result) SweepCell {
	c := SweepCell{Router: router, Setup: setup, Evictor: res.PerWorker[0].Evictor}
	startup := &perf.HDR{}
	for _, pr := range res.PerWorker {
		m := &pr.Metrics
		c.Invocations += m.Count()
		c.TotalStartup += m.TotalStartup()
		c.ColdStarts += m.ColdStarts()
		c.Evictions += pr.PoolStats.Evictions
		c.Rejections += pr.PoolStats.Rejections
		c.Expirations += pr.PoolStats.Expirations
		m.MergeStartupInto(startup)
	}
	if c.Invocations > 0 {
		c.P99Startup = time.Duration(startup.Quantile(0.99))
	}
	least := res.Routed[0]
	for _, n := range res.Routed {
		c.Busiest, least = max(c.Busiest, n), min(least, n)
	}
	if least > 0 {
		c.Spread = float64(c.Busiest) / float64(least)
	}
	return c
}

// Table renders the sweep, one row per cell. The router, busiest-worker
// and spread columns appear only on a multi-worker cluster.
func (r SweepResult) Table() *report.Table {
	multi := r.Workers > 1
	t := &report.Table{Title: fmt.Sprintf("sweep on %s (pool %.0f MB)", r.Workload, r.PoolMB)}
	if multi {
		t.Title = fmt.Sprintf("sweep on %s (%d workers, pool %.0f MB)", r.Workload, r.Workers, r.PoolMB)
		t.Header = []string{"router"}
	}
	t.Header = append(t.Header, "scheduler", "evictor", "total startup", "avg startup", "p99 startup",
		"cold starts", "evictions", "rejections", "expirations")
	if multi {
		t.Header = append(t.Header, "busiest worker", "spread")
	}
	for _, c := range r.Cells {
		row := []any{c.Setup, c.Evictor, c.TotalStartup, c.AvgStartup(), c.P99Startup,
			c.ColdStarts, c.Evictions, c.Rejections, c.Expirations}
		if multi {
			spread := "∞"
			if c.Spread > 0 {
				spread = fmt.Sprintf("%.2f", c.Spread)
			}
			row = append(append([]any{c.Router}, row...), c.Busiest, spread)
		}
		t.AddRow(row...)
	}
	return t
}
