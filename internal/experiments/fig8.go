package experiments

import (
	"fmt"
	"time"

	"mlcr/internal/fstartbench"
	"mlcr/internal/metrics"
	"mlcr/internal/report"
	"mlcr/internal/runner"
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
// offline-training/online-use split. Repeats execute concurrently
// (Options.Parallelism); each repeat owns its workload and trained
// model, and per-repeat observations are merged in repeat order so the
// averages are bit-identical to a sequential run.
func Fig8(opts Options) Fig8Result {
	opts = opts.WithDefaults()

	type accum struct {
		totals []time.Duration
		avgs   []time.Duration
		colds  []int
	}
	acc := map[string]map[string]*accum{} // policy -> pool -> accum
	for _, p := range PolicyNames {
		acc[p] = map[string]*accum{}
		for _, ps := range OverallPools {
			acc[p][ps.Name] = &accum{}
		}
	}

	type obsRow struct {
		policy, pool string
		total, avg   time.Duration
		colds        int
	}
	type repOut struct {
		loose float64
		rows  []obsRow
	}
	reps := runner.Map(opts.Repeats, opts.runnerOpts(), func(rep int) repOut {
		w := fstartbench.BuildOverall(opts.Seed+int64(rep)*101, fstartbench.OverallOptions{})
		loose := CalibrateLoose(w)

		repOpts := opts
		repOpts.Seed = opts.Seed + int64(rep)*977
		trained := TrainMLCR(w, loose, overallFracs(), repOpts)

		out := repOut{loose: loose}
		for _, ps := range OverallPools {
			poolMB := loose * ps.Frac
			TuneMargin(trained, w, poolMB, opts.Parallelism)
			setups := WithEvictor(append(Baselines(), MLCRSetup(trained)), opts.Evictor)
			results := RunAll(setups, w, poolMB, opts)
			for i, s := range setups {
				out.rows = append(out.rows, obsRow{
					policy: s.Name,
					pool:   ps.Name,
					total:  results[i].Metrics.TotalStartup(),
					avg:    results[i].Metrics.AvgStartup(),
					colds:  results[i].Metrics.ColdStarts(),
				})
			}
		}
		return out
	})

	var looseSum float64
	for _, rep := range reps {
		looseSum += rep.loose
		for _, row := range rep.rows {
			a := acc[row.policy][row.pool]
			a.totals = append(a.totals, row.total)
			a.avgs = append(a.avgs, row.avg)
			a.colds = append(a.colds, row.colds)
		}
	}

	out := Fig8Result{LooseMB: looseSum / float64(opts.Repeats)}
	for _, ps := range OverallPools {
		for _, p := range PolicyNames {
			a := acc[p][ps.Name]
			out.Cells = append(out.Cells, Fig8Cell{
				Policy:       p,
				Pool:         ps.Name,
				TotalStartup: avgDuration(a.totals),
				AvgStartup:   avgDuration(a.avgs),
				ColdStarts:   avgInt(a.colds),
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
