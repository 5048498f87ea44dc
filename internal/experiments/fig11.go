package experiments

import (
	"fmt"
	"time"

	"mlcr/internal/fstartbench"
	"mlcr/internal/metrics"
	"mlcr/internal/report"
	"mlcr/internal/runner"
)

// Fig11Groups maps each panel of Figure 11 to its workloads.
var Fig11Groups = map[string][]string{
	"similarity": {fstartbench.HiSim, fstartbench.LoSim},
	"variance":   {fstartbench.LoVar, fstartbench.HiVar},
	"arrival":    {fstartbench.Uniform, fstartbench.Peak, fstartbench.Random},
}

// Fig11Cell is one box of the Figure 11 box charts: the distribution of
// total startup latency for (workload, policy) across pool sizes and
// repeats.
type Fig11Cell struct {
	Workload string
	Policy   string
	// Box summarizes the total startup latency (seconds) across the
	// 25/50/75/100% pool sizes and all repeats — the quantity whose
	// distribution the paper's box charts show.
	Box metrics.Box
	// MeanTotal is the mean total startup latency.
	MeanTotal time.Duration
}

// Fig11Result is one panel (a, b or c) of Figure 11.
type Fig11Result struct {
	Group string
	Cells []Fig11Cell
}

// Cell returns the cell for (workload, policy), or nil.
func (r Fig11Result) Cell(workload, policy string) *Fig11Cell {
	for i := range r.Cells {
		if r.Cells[i].Workload == workload && r.Cells[i].Policy == policy {
			return &r.Cells[i]
		}
	}
	return nil
}

// Fig11 runs one panel of the benchmark evaluation (Section VI-C):
// for every workload in the group and every policy, the workload is
// replayed at pool sizes of 25–100% of Loose for Options.Repeats seeds;
// each run contributes one total-startup-latency observation to the box.
// MLCR is trained once per (workload, repeat) at the 50% pool size.
// Repeats run concurrently (Options.Parallelism), each owning its
// workload and trained model; observations are merged in repeat order
// so the box statistics are bit-identical to a sequential run.
func Fig11(group string, opts Options) Fig11Result {
	names, ok := Fig11Groups[group]
	if !ok {
		panic(fmt.Sprintf("experiments: unknown Fig 11 group %q", group))
	}
	opts = opts.WithDefaults()

	out := Fig11Result{Group: group}
	for _, wname := range names {
		type obsRow struct {
			policy string
			total  float64
		}
		reps := runner.Map(opts.Repeats, opts.runnerOpts(), func(rep int) []obsRow {
			w := fstartbench.Build(wname, opts.Seed+int64(rep)*211, fstartbench.Options{})
			loose := CalibrateLoose(w)

			repOpts := opts
			repOpts.Seed = opts.Seed + int64(rep)*409
			trained := TrainMLCR(w, loose, scaleFracs(), repOpts)

			var rows []obsRow
			for _, scale := range PoolScales {
				poolMB := loose * scale.Frac
				TuneMargin(trained, w, poolMB, opts.Parallelism)
				setups := WithEvictor(append(Baselines(), MLCRSetup(trained)), opts.Evictor)
				results := RunAll(setups, w, poolMB, opts)
				for i, s := range setups {
					rows = append(rows, obsRow{policy: s.Name, total: results[i].Metrics.TotalStartup().Seconds()})
				}
			}
			return rows
		})

		totals := map[string][]float64{} // policy -> total startup (s) observations
		for _, rows := range reps {
			for _, row := range rows {
				totals[row.policy] = append(totals[row.policy], row.total)
			}
		}
		for _, p := range PolicyNames {
			obs := totals[p]
			out.Cells = append(out.Cells, Fig11Cell{
				Workload:  wname,
				Policy:    p,
				Box:       metrics.BoxOf(obs),
				MeanTotal: time.Duration(metrics.Mean(obs) * float64(time.Second)),
			})
		}
	}
	return out
}

// Table renders the panel with box statistics per workload × policy.
func (r Fig11Result) Table() *report.Table {
	t := &report.Table{
		Title:  "Fig 11 (" + r.Group + ") — total startup latency across pool sizes 25–100%",
		Header: []string{"workload", "policy", "mean total", "median (q1–q3) [min–max]", "MLCR reduction"},
	}
	byWorkload := map[string][]Fig11Cell{}
	var order []string
	for _, c := range r.Cells {
		if _, seen := byWorkload[c.Workload]; !seen {
			order = append(order, c.Workload)
		}
		byWorkload[c.Workload] = append(byWorkload[c.Workload], c)
	}
	for _, wname := range order {
		mlcrCell := r.Cell(wname, "MLCR")
		for _, c := range byWorkload[wname] {
			red := "-"
			if c.Policy != "MLCR" && mlcrCell != nil && c.MeanTotal > 0 {
				red = fmt.Sprintf("%.0f%%", 100*metrics.Reduction(c.MeanTotal, mlcrCell.MeanTotal))
			}
			t.AddRow(wname, c.Policy, c.MeanTotal, report.FmtBox(c.Box), red)
		}
	}
	return t
}
