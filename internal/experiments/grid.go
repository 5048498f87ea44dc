package experiments

import (
	"fmt"
	"time"

	"mlcr/internal/evict"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/pool"
	"mlcr/internal/report"
	"mlcr/internal/runner"
	"mlcr/internal/workload"
)

// GridCell is one scheduler × evictor pairing's result on a workload.
type GridCell struct {
	Scheduler    string
	Evictor      string
	TotalStartup time.Duration
	AvgStartup   time.Duration
	ColdStarts   int
	Evictions    int
	Rejections   int
	Expirations  int
}

// GridResult is the full scheduler × evictor comparison of one
// workload at one pool size — the strategy-space map the eviction-policy
// zoo exists for: every reuse scheduler crossed with every eviction
// policy, so MLCR's margin can be read against the whole space instead
// of three fixed pairings.
type GridResult struct {
	PoolMB     float64
	Schedulers []string
	Evictors   []string
	Cells      []GridCell // row-major: schedulers × evictors
}

// Cell returns the cell for (scheduler, evictor), or nil.
func (r GridResult) Cell(sched, ev string) *GridCell {
	for i := range r.Cells {
		if r.Cells[i].Scheduler == sched && r.Cells[i].Evictor == ev {
			return &r.Cells[i]
		}
	}
	return nil
}

// EvictionGrid runs every scheduler × evictor pairing over the workload
// at the given pool size through the parallel harness. Empty scheduler
// or evictor lists default to policy.GridSchedulers() and the full
// evict registry. Each run constructs fresh scheduler and policy
// instances (seeded from opts.Seed), so the grid is bit-identical at
// any Options.Parallelism.
func EvictionGrid(w workload.Workload, poolMB float64, scheds, evictors []string, opts Options) GridResult {
	opts = opts.WithDefaults()
	if len(scheds) == 0 {
		scheds = policy.GridSchedulers()
	}
	if len(evictors) == 0 {
		evictors = evict.Names()
	}
	out := GridResult{PoolMB: poolMB, Schedulers: scheds, Evictors: evictors}

	var specs []runner.Spec
	for _, sn := range scheds {
		if _, err := policy.New(sn, opts.Seed); err != nil {
			panic("experiments: " + err.Error())
		}
		for _, en := range evictors {
			if _, err := evict.New(en, opts.Seed); err != nil {
				panic(err)
			}
			sn, en := sn, en
			specs = append(specs, runner.Spec{
				Name: sn + "/" + en, Workload: w, PoolCapacityMB: poolMB,
				New: func() (platform.Scheduler, pool.Evictor) {
					sched, _ := policy.New(sn, opts.Seed)
					return sched, evict.MustNew(en, opts.Seed)
				},
			})
		}
	}
	results := runner.Run(specs, opts.runnerOpts())
	i := 0
	for _, sn := range scheds {
		for _, en := range evictors {
			res := results[i]
			i++
			st := res.PoolStats
			out.Cells = append(out.Cells, GridCell{
				Scheduler:    sn,
				Evictor:      en,
				TotalStartup: res.Metrics.TotalStartup(),
				AvgStartup:   res.Metrics.AvgStartup(),
				ColdStarts:   res.Metrics.ColdStarts(),
				Evictions:    st.Evictions,
				Rejections:   st.Rejections,
				Expirations:  st.Expirations,
			})
		}
	}
	return out
}

// Table renders the grid, one row per scheduler × evictor pairing.
func (r GridResult) Table() *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("scheduler × evictor grid (pool = %.0f MB)", r.PoolMB),
		Header: []string{"scheduler", "evictor", "total startup", "avg startup",
			"cold starts", "evictions", "rejections", "expirations"},
	}
	for _, c := range r.Cells {
		t.AddRow(c.Scheduler, c.Evictor, c.TotalStartup, c.AvgStartup,
			c.ColdStarts, c.Evictions, c.Rejections, c.Expirations)
	}
	return t
}
