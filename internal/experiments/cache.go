package experiments

import (
	"fmt"
	"time"

	"mlcr/internal/fstartbench"
	"mlcr/internal/registry"
	"mlcr/internal/report"
	"mlcr/internal/runner"
)

// CacheRow is one (policy, cache size) cell of the registry-cache study.
type CacheRow struct {
	Policy       string
	CacheMB      float64
	TotalStartup time.Duration
	HitRate      float64
}

// CacheResult quantifies how a node-local package cache interacts with
// container reuse: caching accelerates the pulls that remain, reuse
// removes pulls entirely — Section II-A's "how to efficiently cache the
// downloaded codes" seen from both ends.
type CacheResult struct {
	PoolMB float64
	Rows   []CacheRow
}

// CacheStudy runs LRU (same-function reuse) and Greedy-Match
// (multi-level reuse) on the overall workload at the Tight pool with
// node-local package caches of increasing size.
func CacheStudy(opts Options) CacheResult {
	opts = opts.WithDefaults()
	w := fstartbench.BuildOverall(opts.Seed, fstartbench.OverallOptions{})
	loose := CalibrateLoose(w)
	poolMB := loose * 0.2

	out := CacheResult{PoolMB: poolMB}
	type cell struct {
		setup   Setup
		cacheMB float64
	}
	var cells []cell
	for _, cacheMB := range []float64{0, 256, 1024, 4096} {
		for _, s := range []Setup{SetupOf("LRU", 0), SetupOf("Greedy-Match", 0)} {
			cells = append(cells, cell{setup: s, cacheMB: cacheMB})
		}
	}
	// Each run builds its cache through the factory in its own goroutine;
	// the slot write is safe because factory i runs exactly once.
	caches := make([]*registry.Cache, len(cells))
	specs := make([]runner.Spec, len(cells))
	for i, c := range cells {
		i, c := i, c
		specs[i] = runner.Spec{Name: c.setup.Name, Workload: w, PoolCapacityMB: poolMB, New: c.setup.New}
		if c.cacheMB > 0 {
			specs[i].NewCache = func() *registry.Cache {
				caches[i] = registry.NewCache(c.cacheMB)
				return caches[i]
			}
		}
	}
	results := runner.Run(specs, opts.runnerOpts())
	for i, c := range cells {
		row := CacheRow{Policy: c.setup.Name, CacheMB: c.cacheMB, TotalStartup: results[i].Metrics.TotalStartup()}
		if caches[i] != nil {
			st := caches[i].Stats()
			if st.Hits+st.Misses > 0 {
				row.HitRate = float64(st.Hits) / float64(st.Hits+st.Misses)
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// Table renders the study.
func (r CacheResult) Table() *report.Table {
	t := &report.Table{
		Title:  "Registry cache study — node-local package cache vs container reuse (Tight pool)",
		Header: []string{"cache MB", "policy", "total startup", "cache hit rate"},
	}
	for _, row := range r.Rows {
		hr := "-"
		if row.CacheMB > 0 {
			hr = fmt.Sprintf("%.0f%%", 100*row.HitRate)
		}
		t.AddRow(fmt.Sprintf("%.0f", row.CacheMB), row.Policy, row.TotalStartup, hr)
	}
	t.Caption = "caching shortens the pulls that remain; multi-level reuse removes pulls entirely"
	return t
}
