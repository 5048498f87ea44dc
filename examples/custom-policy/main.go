// Custom policy: implement your own container scheduler against the
// platform.Scheduler interface and benchmark it against the built-in
// policies. The example policy, "reserve-deep", performs multi-level
// reuse but refuses to repack a full-match (L3) container for a
// *different* function when the pool still has room — preserving warm
// runtimes for their own functions, a hand-written version of the
// behaviour MLCR's DQN learns.
package main

import (
	"fmt"
	"os"

	"mlcr/internal/container"
	"mlcr/internal/core"
	"mlcr/internal/evict"
	"mlcr/internal/experiments"
	"mlcr/internal/fstartbench"
	"mlcr/internal/platform"
	"mlcr/internal/pool"
	"mlcr/internal/report"
	"mlcr/internal/workload"
)

// reserveDeep is the custom scheduler.
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

func main() {
	w := fstartbench.BuildOverall(7, fstartbench.OverallOptions{})
	loose := experiments.CalibrateLoose(w)

	t := &report.Table{
		Title:  "custom Reserve-Deep policy vs built-ins (pool = 50% of Loose)",
		Header: []string{"policy", "total startup", "cold starts", "cleaner repacks"},
	}
	setups := append(experiments.Baselines(),
		experiments.SetupOf("Cost-Greedy", 0),
		experiments.Setup{Name: "Reserve-Deep", New: func() (platform.Scheduler, pool.Evictor) {
			return reserveDeep{}, evict.NewLRU()
		}},
	)
	results := experiments.RunAll(setups, w, loose*0.5, experiments.Options{})
	for i, s := range setups {
		t.AddRow(s.Name, results[i].Metrics.TotalStartup(), results[i].Metrics.ColdStarts(), results[i].CleanerOps.Repacks)
	}
	t.Render(os.Stdout)
	fmt.Println("\nImplementing platform.Scheduler takes three methods; see reserveDeep above.")
}
