package experiments

import (
	"fmt"

	"mlcr/internal/report"
)

// Fig10Row is one policy's warm-resource usage under the Loose pool.
type Fig10Row struct {
	Policy      string
	PeakPoolMB  float64
	Evictions   int
	Rejections  int
	Expirations int
}

// Fig10Result is the warm-resource consumption comparison of Figure 10.
type Fig10Result struct {
	LooseMB float64
	Rows    []Fig10Row
}

// Fig10 measures peak warm-pool memory and eviction activity of every
// policy on the overall workload at the Loose pool size.
func (s *Study) Fig10() Fig10Result {
	w, loose, trained := s.overall(s.opts)
	TuneMargin(trained, w, loose, s.opts.Parallelism)

	out := Fig10Result{LooseMB: loose}
	setups := append(Baselines(), MLCRSetup(trained))
	results := RunAll(setups, w, loose, s.opts)
	for i, su := range setups {
		out.Rows = append(out.Rows, Fig10Row{
			Policy:      su.Name,
			PeakPoolMB:  results[i].PoolStats.PeakUsedMB,
			Evictions:   results[i].PoolStats.Evictions,
			Rejections:  results[i].PoolStats.Rejections,
			Expirations: results[i].PoolStats.Expirations,
		})
	}
	return out
}

// Table renders the resource-usage comparison.
func (r Fig10Result) Table() *report.Table {
	t := &report.Table{
		Title:  "Fig 10 — warm-pool consumption under Loose pool",
		Header: []string{"policy", "peak pool MB", "% of pool", "evictions", "rejections", "expirations"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Policy, fmt.Sprintf("%.0f", row.PeakPoolMB),
			fmt.Sprintf("%.0f%%", 100*row.PeakPoolMB/r.LooseMB),
			row.Evictions, row.Rejections, row.Expirations)
	}
	t.Caption = fmt.Sprintf("Loose pool = %.0f MB", r.LooseMB)
	return t
}
