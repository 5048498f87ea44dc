// Azure-trace: reproduce the paper's motivating statistic — around 19% of
// functions in the Azure production trace are invoked exactly once and
// over 40% at most twice, so classic same-function keep-alive cannot help
// them. Multi-level container reuse serves those one-shot invocations
// from other functions' warm containers.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"mlcr/internal/experiments"
	"mlcr/internal/fstartbench"
	"mlcr/internal/report"
	"mlcr/internal/workload"
)

func main() {
	// Synthesize an Azure-like mix over many function instances: each
	// FStartBench function type appears as several distinct "customer
	// functions" (same package stack, separate identity), with
	// heavy-tailed invocation counts.
	rng := rand.New(rand.NewSource(11))
	types := fstartbench.Functions()
	var fns []*workload.Function
	id := 100
	for i := 0; i < 60; i++ {
		base := types[i%len(types)]
		f := *base // copy: same image/levels, distinct function identity
		f.ID = id
		f.Name = fmt.Sprintf("%s-tenant%02d", base.Name, i)
		id++
		fns = append(fns, &f)
	}

	mix := workload.AzureMix{Window: 30 * time.Minute, Rng: rng}
	counts := mix.Counts(len(fns))
	stats := workload.StatsOf(counts)
	fmt.Printf("synthetic Azure mix: %d functions, %d invocations\n", len(fns), stats.Total)
	fmt.Printf("  invoked exactly once: %.0f%% (trace: ~19%%)\n", 100*stats.OnceFrac)
	fmt.Printf("  invoked at most twice: %.0f%% (trace: >40%%)\n\n", 100*stats.AtMostTwiceFrac)

	// Rebuild the workload from those counts.
	var streams []workload.Stream
	for i, f := range fns {
		times := make([]time.Duration, counts[i])
		for j := range times {
			times[j] = time.Duration(rng.Float64() * float64(30*time.Minute))
		}
		streams = append(streams, workload.Stream{Fn: f, Times: times})
	}
	w := workload.Merge("azure-mix", streams, 0.1, rng)
	if err := w.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	loose := experiments.CalibrateLoose(w)
	t := &report.Table{
		Title:  fmt.Sprintf("one-shot-heavy workload, pool = 50%% of Loose (%.0f MB)", loose),
		Header: []string{"policy", "total startup", "avg startup", "cold starts", "warm L1/L2/L3"},
	}
	setups := append(experiments.Baselines(), experiments.SetupOf("Cost-Greedy", 0))
	results := experiments.RunAll(setups, w, loose*0.5, experiments.Options{})
	for i, s := range setups {
		lv := results[i].Metrics.ByLevel()
		t.AddRow(s.Name, results[i].Metrics.TotalStartup(), results[i].Metrics.AvgStartup(),
			results[i].Metrics.ColdStarts(), fmt.Sprintf("%d/%d/%d", lv[1], lv[2], lv[3]))
	}
	t.Render(os.Stdout)
	fmt.Println("\nSame-function policies cold-start every one-shot function;")
	fmt.Println("multi-level reuse serves them from similar containers (L1–L3 columns).")
}
