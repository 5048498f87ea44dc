// Command fstartbench inspects the FStartBench benchmark: the 13
// functions of Table II with their package composition and timing model,
// and the seven composed workloads with their similarity/variance
// metrics.
//
// Usage:
//
//	fstartbench -table              # Table II + cost model
//	fstartbench -workloads          # the seven workloads' metrics
//	fstartbench -emit Peak          # CSV of one workload's invocations
package main

import (
	"flag"
	"fmt"
	"os"

	"mlcr/internal/fstartbench"
	"mlcr/internal/image"
	"mlcr/internal/report"
	"mlcr/internal/runner"
	"mlcr/internal/workload"
)

func main() {
	table := flag.Bool("table", false, "print Table II (the 13 functions)")
	workloads := flag.Bool("workloads", false, "print the seven workloads and their metrics")
	emit := flag.String("emit", "", "emit one workload's invocations as CSV")
	seed := flag.Int64("seed", 1, "workload seed")
	parallel := flag.Int("parallel", 0, "concurrent workload builds for -workloads (0 = GOMAXPROCS, 1 = sequential)")
	flag.Parse()

	if !*table && !*workloads && *emit == "" {
		*table = true
		*workloads = true
	}

	if *table {
		printTable()
	}
	if *workloads {
		printWorkloads(*seed, *parallel)
	}
	if *emit != "" {
		emitWorkload(*emit, *seed)
	}
}

func printTable() {
	t := &report.Table{
		Title:  "Table II — FStartBench functions",
		Header: []string{"id", "name", "OS", "language", "runtime pkgs", "cold start", "exec", "mem MB", "description"},
	}
	for _, f := range fstartbench.Functions() {
		t.AddRow(f.ID, f.Name, mainPkg(f.Image, image.OS), mainPkg(f.Image, image.Language),
			len(f.Image.AtLevel(image.Runtime)),
			f.ColdStartTime(), f.Exec, fmt.Sprintf("%.0f", f.MemoryMB), f.Description)
	}
	t.Render(os.Stdout)
	fmt.Println()
}

// mainPkg names a level by its largest package (the base image or the
// language toolchain, not auxiliary packages).
func mainPkg(im image.Image, l image.Level) string {
	ps := im.AtLevel(l)
	if len(ps) == 0 {
		return "-"
	}
	best := ps[0]
	for _, p := range ps[1:] {
		if p.SizeMB > best.SizeMB {
			best = p
		}
	}
	return best.Name
}

func printWorkloads(seed int64, parallel int) {
	t := &report.Table{
		Title:  "FStartBench workloads",
		Header: []string{"workload", "function types", "invocations", "span", "avg Jaccard", "size variance"},
	}
	// Building and analyzing the workloads (similarity is O(n²) Jaccard)
	// dominates; build them concurrently, rows stay in catalog order.
	builds := runner.Map(len(fstartbench.Names), runner.Options{Parallelism: parallel}, func(i int) workload.Workload {
		return fstartbench.Build(fstartbench.Names[i], seed, fstartbench.Options{})
	})
	for i, name := range fstartbench.Names {
		w := builds[i]
		t.AddRow(name, fmt.Sprintf("%v", fstartbench.TypeSet(name)), len(w.Invocations),
			w.Duration(), fmt.Sprintf("%.3f", w.AvgSimilarity()), fmt.Sprintf("%.0f", w.SizeVariance()))
	}
	w := fstartbench.BuildOverall(seed, fstartbench.OverallOptions{})
	t.AddRow(fstartbench.Overall, "[1..13]", len(w.Invocations), w.Duration(),
		fmt.Sprintf("%.3f", w.AvgSimilarity()), fmt.Sprintf("%.0f", w.SizeVariance()))
	t.Render(os.Stdout)
	fmt.Println()
}

func emitWorkload(name string, seed int64) {
	var t report.Table
	t.Header = []string{"seq", "arrival_ms", "fn_id", "fn_name", "exec_ms"}
	var w = fstartbench.BuildOverall(seed, fstartbench.OverallOptions{})
	if name != fstartbench.Overall {
		w = fstartbench.Build(name, seed, fstartbench.Options{})
	}
	for _, inv := range w.Invocations {
		t.AddRow(inv.Seq, inv.Arrival.Milliseconds(), inv.Fn.ID, inv.Fn.Name, inv.Exec.Milliseconds())
	}
	if err := t.WriteCSV(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "fstartbench: %v\n", err)
		os.Exit(1)
	}
}
