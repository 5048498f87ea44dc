// Quickstart: build an FStartBench workload, replay it through the
// serverless-platform simulator under two policies, and compare startup
// metrics — the smallest end-to-end use of the library.
package main

import (
	"fmt"
	"os"

	"mlcr/internal/experiments"
	"mlcr/internal/fstartbench"
	"mlcr/internal/report"
)

func main() {
	// 1. Compose a workload: 300 invocations of five function types
	//    arriving in alternating peak/valley minutes.
	w := fstartbench.Build(fstartbench.Peak, 42, fstartbench.Options{})
	fmt.Printf("workload %s: %d invocations of %d function types over %v\n",
		w.Name, len(w.Invocations), len(w.Functions), w.Duration())

	// 2. Size the warm pool: half of the calibrated Loose size (the
	//    peak memory of concurrently running containers).
	loose := experiments.CalibrateLoose(w)
	poolMB := loose * 0.5
	fmt.Printf("warm pool: %.0f MB (50%% of Loose %.0f MB)\n\n", poolMB, loose)

	// 3. Replay under the classic same-function LRU policy and under
	//    multi-level container reuse (Greedy-Match).
	t := &report.Table{
		Title:  "LRU vs multi-level reuse",
		Header: []string{"policy", "total startup", "avg startup", "cold starts", "L1/L2/L3 warm"},
	}
	setups := []experiments.Setup{experiments.SetupOf("LRU", 0), experiments.SetupOf("Greedy-Match", 0)}
	results := experiments.RunAll(setups, w, poolMB, experiments.Options{})
	for i, s := range setups {
		lv := results[i].Metrics.ByLevel()
		t.AddRow(s.Name, results[i].Metrics.TotalStartup(), results[i].Metrics.AvgStartup(),
			results[i].Metrics.ColdStarts(), fmt.Sprintf("%d/%d/%d", lv[1], lv[2], lv[3]))
	}
	t.Render(os.Stdout)
}
