package experiments

import (
	"time"

	"mlcr/internal/report"
	"mlcr/internal/runner"
)

// AblationRow is one MLCR variant's result.
type AblationRow struct {
	Variant      string
	TotalStartup time.Duration
	ColdStarts   int
}

// AblationResult compares MLCR design choices on the overall workload at
// the Tight pool size (where scheduling quality matters most).
type AblationResult struct {
	PoolMB float64
	Rows   []AblationRow
}

// Ablation trains and evaluates MLCR variants that each change one
// design choice:
//
//	full            — the shipped configuration
//	no-greedy-expl  — exploration is uniform over valid actions instead
//	                  of biased toward the greedy heuristic
//	no-margin       — the confidence gate is disabled, in training and
//	                  at inference
//	shaped-reward   — potential-based reward shaping on (off by default)
//
// Only MLCR/full is margin-tuned (on the trace it is scored on); the
// other variants run at the configured margin. So "each design choice
// contributes" compares a tuned model with untuned ones. Four reference
// rows follow: Cost-Greedy, Greedy-Match, LRU and Tabular-Q.
func (s *Study) Ablation() AblationResult {
	variants := []struct {
		name   string
		mutate func(*Options)
	}{
		{"full", func(*Options) {}},
		{"no-greedy-expl", func(o *Options) { o.MLCR.GreedyExploreBias = -1 }},
		{"no-margin", func(o *Options) { o.MLCR.DeviationMargin = -1 }},
		{"shaped-reward", func(o *Options) { o.MLCR.ShapingWeight = 1 }},
	}
	// Each variant has its own model, so variants run concurrently;
	// results land in variant order regardless of completion order.
	rows := runner.Map(len(variants), s.opts.runnerOpts(), func(i int) AblationRow {
		v := variants[i]
		vo := s.opts
		v.mutate(&vo)
		w, loose, trained := s.overall(vo)
		poolMB := loose * 0.2 // Tight
		if v.name == "full" {
			TuneMargin(trained, w, poolMB, s.opts.Parallelism)
		}
		res := RunAll([]Setup{MLCRSetup(trained)}, w, poolMB, s.opts)[0]
		return AblationRow{
			Variant:      "MLCR/" + v.name,
			TotalStartup: res.Metrics.TotalStartup(),
			ColdStarts:   res.Metrics.ColdStarts(),
		}
	})
	w, loose, _ := s.overall(s.opts)
	out := AblationResult{PoolMB: loose * 0.2, Rows: rows}
	refs := []Setup{
		SetupOf("Cost-Greedy", 0),
		SetupOf("Greedy-Match", 0),
		SetupOf("LRU", 0),
		SetupOf("Tabular-Q", s.opts.Seed),
	}
	results := RunAll(refs, w, out.PoolMB, s.opts)
	for i, r := range refs {
		out.Rows = append(out.Rows, AblationRow{
			Variant:      r.Name,
			TotalStartup: results[i].Metrics.TotalStartup(),
			ColdStarts:   results[i].Metrics.ColdStarts(),
		})
	}
	return out
}

// Table renders the ablation comparison.
func (r AblationResult) Table() *report.Table {
	t := &report.Table{
		Title:  "Ablation — MLCR design choices (overall workload, Tight pool)",
		Header: []string{"variant", "total startup", "cold starts"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Variant, row.TotalStartup, row.ColdStarts)
	}
	return t
}
