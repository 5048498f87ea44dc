package experiments

import (
	"fmt"
	"time"

	"mlcr/internal/fstartbench"
	"mlcr/internal/metrics"
	"mlcr/internal/report"
)

// Fig8Cell is one bar of Figure 8: a policy's average result at one pool
// setting.
type Fig8Cell struct {
	Policy       string
	Pool         string
	TotalStartup time.Duration
	AvgStartup   time.Duration
	ColdStarts   int
}

// Fig8Result is the overall evaluation of Section VI-B: total startup
// latency (8a) and cold-start counts (8b) of the five policies under the
// Tight/Moderate/Loose pool settings.
type Fig8Result struct {
	LooseMB float64 // mean calibrated Loose size across repeats
	Cells   []Fig8Cell
}

// Cell returns the cell for (policy, pool), or nil.
func (r Fig8Result) Cell(policy, pool string) *Fig8Cell {
	for i := range r.Cells {
		if r.Cells[i].Policy == policy && r.Cells[i].Pool == pool {
			return &r.Cells[i]
		}
	}
	return nil
}

// Fig8 runs the overall evaluation: the 400-invocation all-functions
// workload (Poisson arrivals with random per-function rates), repeated
// over Options.Repeats seeds, for every policy × pool setting. MLCR is
// trained offline per repeat with a Tight/Moderate/Loose pool-size
// curriculum and evaluated on all three settings, matching the paper's
// offline-training/online-use split. Each cell averages the sweep's
// repeats in repeat order, so the result is bit-identical at any
// Options.Parallelism.
func (s *Study) Fig8() Fig8Result {
	reps := s.sweep(fstartbench.Overall, 101, 977, OverallPools)
	n := len(reps)
	var out Fig8Result
	for _, rep := range reps {
		out.LooseMB += rep.loose
	}
	out.LooseMB /= float64(n)
	for i, ps := range OverallPools {
		for j, p := range PolicyNames {
			var total, avg time.Duration
			colds := 0
			for _, rep := range reps {
				m := rep.runs[i][j].Metrics
				total += m.TotalStartup()
				avg += m.AvgStartup()
				colds += m.ColdStarts()
			}
			out.Cells = append(out.Cells, Fig8Cell{
				Policy:       p,
				Pool:         ps.Name,
				TotalStartup: total / time.Duration(n),
				AvgStartup:   avg / time.Duration(n),
				ColdStarts:   (colds + n/2) / n, // nearest integer
			})
		}
	}
	return out
}

// Table renders Figures 8a and 8b side by side, with MLCR's reduction
// versus each baseline.
func (r Fig8Result) Table() *report.Table {
	t := &report.Table{
		Title:  "Fig 8 — overall: total startup latency (8a) and cold starts (8b)",
		Header: []string{"pool", "policy", "total startup", "avg startup", "cold starts", "MLCR reduction"},
	}
	for _, ps := range OverallPools {
		mlcrCell := r.Cell("MLCR", ps.Name)
		for _, p := range PolicyNames {
			c := r.Cell(p, ps.Name)
			if c == nil {
				continue
			}
			red := "-"
			if p != "MLCR" && mlcrCell != nil && c.TotalStartup > 0 {
				red = fmt.Sprintf("%.0f%%", 100*metrics.Reduction(c.TotalStartup, mlcrCell.TotalStartup))
			}
			t.AddRow(ps.Name, p, c.TotalStartup, c.AvgStartup, c.ColdStarts, red)
		}
	}
	t.Caption = fmt.Sprintf("Loose pool = %.0f MB (calibrated peak alive-container memory)", r.LooseMB)
	return t
}
