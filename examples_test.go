package mlcr_test

// Library uses that no CLI covers, each checked by its // Output: block:
// a custom scheduler benchmarked against the built-ins, FStartBench's
// analysis primitives, and the Azure trace's one-shot statistic. Run
// them with `go test -run '^Example' -v .`.

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"mlcr/internal/container"
	"mlcr/internal/core"
	"mlcr/internal/experiments"
	"mlcr/internal/fstartbench"
	"mlcr/internal/image"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/report"
	"mlcr/internal/workload"
)

// reserveDeep performs multi-level reuse but refuses to repack a
// full-match (L3) container for a *different* function while the pool
// still has room, preserving warm runtimes for their own functions: a
// hand-written version of the behaviour MLCR's DQN learns.
type reserveDeep struct{}

func (reserveDeep) Name() string { return "Reserve-Deep" }

func (reserveDeep) Schedule(env platform.Env, inv *workload.Invocation) int {
	best := platform.ColdStart
	var bestCost int64 = 1 << 62
	poolRoomy := env.Pool.CapacityMB() <= 0 || env.Pool.UsedMB() < 0.8*env.Pool.CapacityMB()
	for _, c := range env.Pool.Idle() {
		est, lv := container.EstimateFor(inv.Fn, c)
		if lv == core.NoMatch {
			continue
		}
		// The twist: leave other functions' L3 containers alone while
		// the pool is roomy — their owners will be back.
		if poolRoomy && lv == core.MatchL3 && c.FnID != inv.Fn.ID {
			continue
		}
		if cost := int64(est.Total()); cost < bestCost {
			best, bestCost = c.ID, cost
		}
	}
	if best != platform.ColdStart &&
		bestCost >= int64(container.Estimate(inv.Fn, core.NoMatch, false).Total()) {
		return platform.ColdStart
	}
	return best
}

func (reserveDeep) OnResult(platform.Env, *workload.Invocation, platform.Result) {}

// Example_customPolicy implements platform.Scheduler (three methods, see
// reserveDeep) and benchmarks it against the built-in policies.
func Example_customPolicy() {
	w := fstartbench.BuildOverall(7, fstartbench.OverallOptions{})
	loose := experiments.CalibrateLoose(w)

	t := &report.Table{
		Title:  "custom Reserve-Deep policy vs built-ins (pool = 50% of Loose)",
		Header: []string{"policy", "total startup", "cold starts", "cleaner repacks"},
	}
	setups := append(experiments.Baselines(),
		experiments.SetupOf("Cost-Greedy", 0),
		experiments.Setup{Name: "Reserve-Deep", New: func(int) platform.Scheduler { return reserveDeep{} }},
	)
	results := experiments.RunAll(setups, w, loose*0.5, experiments.Options{})
	for i, s := range setups {
		t.AddRow(s.Name, results[i].Metrics.TotalStartup(), results[i].Metrics.ColdStarts(), results[i].CleanerOps.Repacks)
	}
	t.Render(os.Stdout)
	// Output:
	// == custom Reserve-Deep policy vs built-ins (pool = 50% of Loose) ==
	// policy        total startup  cold starts  cleaner repacks
	// ------------  -------------  -----------  ---------------
	// LRU           8.7m           41           0
	// FaasCache     11.6m          51           0
	// KeepAlive     22.3m          74           0
	// Greedy-Match  8.6m           22           105
	// Cost-Greedy   9.7m           22           84
	// Reserve-Deep  8.6m           26           39
}

// Example_workloadAnalysis inspects FStartBench through the library's
// analysis primitives: the pairwise multi-level match matrix of the 13
// functions, Section V's per-workload similarity and size-variance
// metrics, the reuse-depth profile a workload produces on the platform,
// and the level sizes that make L1/L2 matches worth having.
func Example_workloadAnalysis() {
	fns := fstartbench.Functions()

	// 1. Pairwise match matrix: which function pairs can reuse each
	//    other's containers, and how deeply?
	fmt.Println("pairwise match levels (rows reuse columns' containers):")
	var row strings.Builder
	row.WriteString("      ")
	for _, g := range fns {
		fmt.Fprintf(&row, "F%-3d", g.ID)
	}
	fmt.Println(strings.TrimRight(row.String(), " "))
	for _, f := range fns {
		row.Reset()
		fmt.Fprintf(&row, "  F%-3d", f.ID)
		for _, g := range fns {
			lv := core.Match(&f.Image, &g.Image)
			fmt.Fprintf(&row, "%-4s", []string{"·", "1", "2", "3"}[int(lv)])
		}
		fmt.Println(strings.TrimRight(row.String(), " "))
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
	res := platform.New(platform.Config{PoolCapacityMB: loose * 0.5}, policy.NewGreedyMatch()).Run(w)
	lv := res.Metrics.ByLevel()
	fmt.Printf("\nUniform workload under Greedy-Match (pool 50%%):\n")
	fmt.Printf("  cold starts: %d; warm starts at L1: %d, L2: %d, L3: %d\n", lv[0], lv[1], lv[2], lv[3])
	fmt.Printf("  cleaner repacked containers %d times (%d volume unmounts, %d mounts)\n",
		res.CleanerOps.Repacks, res.CleanerOps.Unmounts, res.CleanerOps.Mounts)

	// 4. Level sizes: how many MB of pulls each level saves for the
	//    heaviest function.
	f13 := fstartbench.ByID(fns, 13)
	fmt.Printf("\n%s level sizes: OS %.0f MB, language %.0f MB, runtime %.0f MB\n",
		f13.Name,
		f13.Image.LevelSizeMB(image.OS),
		f13.Image.LevelSizeMB(image.Language),
		f13.Image.LevelSizeMB(image.Runtime))
	// Output:
	// pairwise match levels (rows reuse columns' containers):
	//       F1  F2  F3  F4  F5  F6  F7  F8  F9  F10 F11 F12 F13
	//   F1  3   1   1   1   ·   ·   ·   ·   ·   ·   1   3   ·
	//   F2  1   3   1   1   ·   ·   ·   ·   ·   ·   3   1   ·
	//   F3  1   1   3   1   ·   ·   ·   ·   ·   ·   1   1   ·
	//   F4  1   1   1   3   ·   ·   ·   ·   ·   ·   1   1   ·
	//   F5  ·   ·   ·   ·   3   2   2   2   ·   3   ·   ·   2
	//   F6  ·   ·   ·   ·   2   3   2   2   ·   2   ·   ·   2
	//   F7  ·   ·   ·   ·   2   2   3   2   ·   2   ·   ·   2
	//   F8  ·   ·   ·   ·   2   2   2   3   ·   2   ·   ·   2
	//   F9  ·   ·   ·   ·   ·   ·   ·   ·   3   ·   ·   ·   ·
	//   F10 ·   ·   ·   ·   3   2   2   2   ·   3   ·   ·   2
	//   F11 1   3   1   1   ·   ·   ·   ·   ·   ·   3   1   ·
	//   F12 3   1   1   1   ·   ·   ·   ·   ·   ·   1   3   ·
	//   F13 ·   ·   ·   ·   2   2   2   2   ·   2   ·   ·   3
	//   (· = no match / cold, 1..3 = reusable level)
	//
	// == workload metrics ==
	// workload  avg Jaccard  size variance  mean cold start
	// --------  -----------  -------------  ---------------
	// LO-Sim    0.267        3880           12.1s
	// HI-Sim    0.504        768            6.0s
	// LO-Var    0.504        768            6.0s
	// HI-Var    0.267        3880           12.1s
	// Uniform   0.372        3565           12.0s
	// Peak      0.372        3565           12.0s
	// Random    0.372        3565           12.0s
	//
	// Uniform workload under Greedy-Match (pool 50%):
	//   cold starts: 10; warm starts at L1: 117, L2: 13, L3: 160
	//   cleaner repacked containers 130 times (247 volume unmounts, 247 mounts)
	//
	// ml-inference-tf level sizes: OS 50 MB, language 49 MB, runtime 528 MB
}

// Example_azureTrace reproduces the paper's motivating statistic: about
// 19% of functions in the Azure production trace are invoked exactly
// once and over 40% at most twice, so same-function keep-alive cannot
// help them. Multi-level reuse serves those one-shot invocations from
// other functions' warm containers (the L1–L3 columns).
func Example_azureTrace() {
	// An Azure-like mix over many function instances: each FStartBench
	// function type appears as several distinct "customer functions"
	// (same package stack, separate identity) with heavy-tailed
	// invocation counts.
	rng := rand.New(rand.NewSource(11))
	types := fstartbench.Functions()
	var fns []*workload.Function
	for i := 0; i < 60; i++ {
		base := types[i%len(types)]
		f := *base // copy: same image, distinct function identity
		f.ID = 100 + i
		f.Name = fmt.Sprintf("%s-tenant%02d", base.Name, i)
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
		fmt.Println(err)
		return
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
	// Output:
	// synthetic Azure mix: 60 functions, 654 invocations
	//   invoked exactly once: 22% (trace: ~19%)
	//   invoked at most twice: 43% (trace: >40%)
	//
	// == one-shot-heavy workload, pool = 50% of Loose (20008 MB) ==
	// policy        total startup  avg startup  cold starts  warm L1/L2/L3
	// ------------  -------------  -----------  -----------  -------------
	// LRU           17.7m          1.62s        97           0/0/557
	// FaasCache     18.6m          1.70s        106          0/0/548
	// KeepAlive     19.0m          1.74s        103          0/0/551
	// Greedy-Match  9.6m           882ms        13           31/7/603
	// Cost-Greedy   9.6m           880ms        13           31/7/603
}
