// Workload analysis: inspect FStartBench through the library's analysis
// primitives — the pairwise multi-level match matrix of the 13 functions,
// per-workload similarity and size-variance metrics, and the reuse-depth
// profile a workload produces on the platform.
package main

import (
	"fmt"
	"os"

	"mlcr/internal/core"
	"mlcr/internal/experiments"
	"mlcr/internal/fstartbench"
	"mlcr/internal/image"
	"mlcr/internal/report"
)

func main() {
	fns := fstartbench.Functions()

	// 1. Pairwise match matrix: which function pairs can reuse each
	//    other's containers, and how deeply?
	fmt.Println("pairwise match levels (rows reuse columns' containers):")
	fmt.Print("      ")
	for _, g := range fns {
		fmt.Printf("F%-3d", g.ID)
	}
	fmt.Println()
	for _, f := range fns {
		fmt.Printf("  F%-3d", f.ID)
		for _, g := range fns {
			lv := core.Match(&f.Image, &g.Image)
			sym := []string{"·", "1", "2", "3"}[int(lv)]
			fmt.Printf("%-4s", sym)
		}
		fmt.Println()
	}
	fmt.Println("  (· = no match / cold, 1..3 = reusable level)")

	// 2. Per-workload metrics (Section V's three lenses).
	t := &report.Table{
		Title:  "workload metrics",
		Header: []string{"workload", "avg Jaccard", "size variance", "mean cold start"},
	}
	for _, name := range fstartbench.Names {
		w := fstartbench.Build(name, 1, fstartbench.Options{})
		var cold float64
		for _, f := range w.Functions {
			cold += f.ColdStartTime().Seconds()
		}
		t.AddRow(name, fmt.Sprintf("%.3f", w.AvgSimilarity()),
			fmt.Sprintf("%.0f", w.SizeVariance()),
			fmt.Sprintf("%.1fs", cold/float64(len(w.Functions))))
	}
	fmt.Println()
	t.Render(os.Stdout)

	// 3. Reuse-depth profile: how often each warm level is hit when the
	//    Uniform workload runs under multi-level reuse.
	w := fstartbench.Build(fstartbench.Uniform, 1, fstartbench.Options{})
	loose := experiments.CalibrateLoose(w)
	res := experiments.RunOnce(experiments.SetupOf("Greedy-Match", 0), w, loose*0.5)
	lv := res.Metrics.ByLevel()
	fmt.Printf("\nUniform workload under Greedy-Match (pool 50%%):\n")
	fmt.Printf("  cold starts: %d; warm starts at L1: %d, L2: %d, L3: %d\n", lv[0], lv[1], lv[2], lv[3])
	fmt.Printf("  cleaner repacked containers %d times (%d volume unmounts, %d mounts)\n",
		res.CleanerOps.Repacks, res.CleanerOps.Unmounts, res.CleanerOps.Mounts)

	// 4. Level sizes: why L1/L2 matches matter — how many MB of pulls
	//    each level saves for the heaviest function.
	f13 := fstartbench.ByID(fns, 13)
	fmt.Printf("\n%s level sizes: OS %.0f MB, language %.0f MB, runtime %.0f MB\n",
		f13.Name,
		f13.Image.LevelSizeMB(image.OS),
		f13.Image.LevelSizeMB(image.Language),
		f13.Image.LevelSizeMB(image.Runtime))
}
