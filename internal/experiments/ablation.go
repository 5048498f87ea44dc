package experiments

import (
	"time"

	"mlcr/internal/fstartbench"
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

// Ablation trains and evaluates MLCR variants that each disable one
// design choice:
//
//	full            — the shipped configuration
//	no-greedy-expl  — exploration is uniform over valid actions instead
//	                  of biased toward the greedy heuristic
//	no-margin       — the inference-time confidence gate is disabled
//	shaped-reward   — potential-based reward shaping on (off by default)
//	greedy-fallback — margin = ∞: the DQN is never consulted
//
// plus the two greedy reference policies.
func Ablation(opts Options) AblationResult {
	opts = opts.WithDefaults()
	w := fstartbench.BuildOverall(opts.Seed, fstartbench.OverallOptions{})
	loose := CalibrateLoose(w)
	poolMB := loose * 0.2 // Tight

	out := AblationResult{PoolMB: poolMB}
	variants := []struct {
		name   string
		mutate func(*Options)
	}{
		{"full", func(*Options) {}},
		{"no-greedy-expl", func(o *Options) { o.MLCR.GreedyExploreBias = -1 }},
		{"no-margin", func(o *Options) { o.MLCR.DeviationMargin = -1 }},
		{"shaped-reward", func(o *Options) { o.MLCR.ShapingWeight = 1 }},
	}
	// Each variant trains its own model, so variants run concurrently;
	// results land in variant order regardless of completion order.
	out.Rows = append(out.Rows, runner.Map(len(variants), opts.runnerOpts(), func(i int) AblationRow {
		v := variants[i]
		vo := opts
		v.mutate(&vo)
		trained := TrainMLCR(w, loose, overallFracs(), vo)
		if v.name == "full" {
			TuneMargin(trained, w, poolMB, opts.Parallelism)
		}
		res := RunOnce(MLCRSetup(trained), w, poolMB)
		return AblationRow{
			Variant:      "MLCR/" + v.name,
			TotalStartup: res.Metrics.TotalStartup(),
			ColdStarts:   res.Metrics.ColdStarts(),
		}
	})...)
	refs := []Setup{
		SetupOf("Cost-Greedy", 0),
		SetupOf("Greedy-Match", 0),
		SetupOf("LRU", 0),
		SetupOf("Tabular-Q", opts.Seed),
	}
	results := RunAll(refs, w, poolMB, opts)
	for i, s := range refs {
		out.Rows = append(out.Rows, AblationRow{
			Variant:      s.Name,
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
