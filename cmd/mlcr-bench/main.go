// Command mlcr-bench regenerates every table and figure of the paper's
// evaluation from the simulator (see DESIGN.md for the experiment index).
//
// Usage:
//
//	mlcr-bench -fig all                 # everything (slow: trains DQNs)
//	mlcr-bench -fig 1                   # Figure 1 (no training)
//	mlcr-bench -fig 8 -repeats 3        # overall evaluation
//	mlcr-bench -fig 11a -episodes 48    # similarity panel, longer training
//	mlcr-bench -fig 8 -csv out.csv      # also emit CSV
//	mlcr-bench -fig 8 -evictor clean    # rerun fig 8 under clean-first eviction
//	mlcr-bench -fig grid                # scheduler × evictor grid
//	mlcr-bench -fig cluster             # router × scheduler grid on a cluster
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mlcr/internal/cluster"
	"mlcr/internal/evict"
	"mlcr/internal/experiments"
	"mlcr/internal/fstartbench"
	"mlcr/internal/report"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 1, 2, 3, 8, 9, 10, 11a, 11b, 11c, overhead, ablation, grid, cluster, all")
	workers := flag.Int("workers", 8, "cluster size for -fig cluster")
	seed := flag.Int64("seed", 1, "base random seed")
	repeats := flag.Int("repeats", 0, "workload seeds per data point (0 = default 3)")
	episodes := flag.Int("episodes", 0, "MLCR training episodes (0 = default 36)")
	parallel := flag.Int("parallel", 0, "concurrent simulation runs (0 = GOMAXPROCS, 1 = sequential; results are identical)")
	evictorName := flag.String("evictor", "",
		"override eviction for figures 8, 11 and cluster (-fig grid crosses every evictor): "+strings.Join(evict.Names(), ", "))
	csvPath := flag.String("csv", "", "also write the table(s) as CSV to this file")
	flag.Parse()

	if _, err := evict.New(*evictorName); *evictorName != "" && err != nil {
		fmt.Fprintf(os.Stderr, "mlcr-bench: %v\n", err)
		os.Exit(2)
	}
	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "mlcr-bench: -workers must be >= 1, got %d\n", *workers)
		os.Exit(2)
	}
	opts := experiments.Options{Seed: *seed, Repeats: *repeats, Episodes: *episodes,
		Parallelism: *parallel, Evictor: *evictorName}
	study := experiments.NewStudy(opts) // -fig all trains each model once

	var tables []*report.Table
	run := func(name string, f func() *report.Table) {
		start := time.Now()
		t := f()
		t.Render(os.Stdout)
		fmt.Printf("(%s regenerated in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
		tables = append(tables, t)
	}

	want := func(name string) bool { return *fig == "all" || *fig == name }

	if want("1") {
		run("fig 1", func() *report.Table { return experiments.Fig1().Table() })
	}
	if want("2") {
		run("fig 2", func() *report.Table { return experiments.Fig2().Table() })
	}
	if want("3") {
		run("fig 3", func() *report.Table { return experiments.Fig3(*seed).Table() })
	}
	if want("8") {
		run("fig 8", func() *report.Table { return study.Fig8().Table() })
	}
	if want("9") {
		run("fig 9", func() *report.Table { return study.Fig9(50).Table() })
	}
	if want("10") {
		run("fig 10", func() *report.Table { return study.Fig10().Table() })
	}
	for _, panel := range []struct{ suffix, group string }{
		{"11a", "similarity"}, {"11b", "variance"}, {"11c", "arrival"},
	} {
		if want(panel.suffix) {
			group := panel.group
			run("fig "+panel.suffix, func() *report.Table { return study.Fig11(group).Table() })
		}
	}
	if want("overhead") {
		run("overhead", func() *report.Table { return study.Overhead().Table() })
	}
	if want("ablation") {
		run("ablation", func() *report.Table { return study.Ablation().Table() })
	}
	// The comparison sweeps are opt-in: -fig grid crosses every grid
	// scheduler with every evictor on one platform, -fig cluster with
	// every router on a -workers cluster (Figure 4's deployment model at
	// sweep scale). Neither is a paper figure.
	if *fig == "grid" || *fig == "cluster" {
		run(*fig, func() *report.Table {
			w := fstartbench.BuildOverall(*seed, fstartbench.OverallOptions{})
			o := opts.WithDefaults()
			n, routers, evictors := 1, []string(nil), evict.Names()
			if *fig == "cluster" {
				n, routers, evictors = *workers, cluster.RouterNames(), []string{o.Evictor}
			}
			return experiments.Sweep(w, n, experiments.CalibrateLoose(w)*0.5, routers, experiments.GridSetups(o.Seed), evictors, o).Table()
		})
	}

	if len(tables) == 0 {
		fmt.Fprintf(os.Stderr, "mlcr-bench: unknown figure %q\n", *fig)
		os.Exit(2)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mlcr-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		for _, t := range tables {
			fmt.Fprintf(f, "# %s\n", strings.TrimSpace(t.Title))
			if err := t.WriteCSV(f); err != nil {
				fmt.Fprintf(os.Stderr, "mlcr-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintln(f)
		}
	}
}
