// Command mlcr-sim replays one FStartBench workload through the platform
// simulator under a chosen scheduling policy and prints the resulting
// startup metrics.
//
// Usage:
//
//	mlcr-sim -workload Peak -policy Greedy-Match -pool 0.5
//	mlcr-sim -workload Overall -policy MLCR -episodes 36
//	mlcr-sim -workload LO-Sim -policy MLCR -model mlcr.gob
//	mlcr-sim -workload Overall -policy all -parallel 8
//	mlcr-sim -workload Peak -policy Greedy-Match -evictor faascache
//	mlcr-sim -workload Uniform -evictor all -count 200
//	mlcr-sim -workers 1000 -routing p2c
//	mlcr-sim -workers 8 -routing all -evictor faascache
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mlcr/internal/cluster"
	"mlcr/internal/evict"
	"mlcr/internal/experiments"
	"mlcr/internal/fstartbench"
	"mlcr/internal/mlcr"
	"mlcr/internal/obs"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/pool"
	"mlcr/internal/report"
	"mlcr/internal/trace"
	"mlcr/internal/workload"
)

func main() {
	wname := flag.String("workload", "Overall",
		"workload: Overall, LO-Sim, HI-Sim, LO-Var, HI-Var, Uniform, Peak, Random")
	policyName := flag.String("policy", "Greedy-Match",
		"policy: "+strings.Join(policy.Names(), ", ")+", MLCR, or 'all' for a comparison table")
	parallel := flag.Int("parallel", 0,
		"concurrent simulation runs for -policy all (0 = GOMAXPROCS, 1 = sequential; results are identical)")
	workers := flag.Int("workers", 1,
		"cluster size: > 1 replays the workload through the multi-worker deployment (Figure 4)")
	routing := flag.String("routing", "round-robin",
		"cluster front-end routing policy (-workers > 1): "+strings.Join(cluster.RouterNames(), ", ")+
			"; 'all' compares every router")
	evictorName := flag.String("evictor", "",
		"override the policy's eviction strategy: "+strings.Join(evict.Names(), ", ")+
			"; 'all' runs the scheduler × evictor grid")
	poolFrac := flag.Float64("pool", 0.5, "warm pool size as a fraction of the calibrated Loose size")
	count := flag.Int("count", 0, "invocation count for generated workloads (0 = workload default)")
	seed := flag.Int64("seed", 1, "workload seed")
	episodes := flag.Int("episodes", 0, "MLCR training episodes (MLCR policy only; 0 = default)")
	modelPath := flag.String("model", "", "replay a pre-trained MLCR model (as saved by mlcr-train) instead of training one")
	tracePath := flag.String("trace", "", "replay a CSV trace (seq,arrival_ms,fn_id,exec_ms) instead of a generated workload")
	traceOut := flag.String("trace-out", "", "write a structured event trace of the run (.json → Chrome trace_event for chrome://tracing, otherwise JSONL)")
	metricsOut := flag.String("metrics-out", "", "write a Prometheus exposition-format metrics snapshot of the run")
	auditOut := flag.String("audit-out", "", "write the scheduler decision audit log (JSONL)")
	flag.Parse()

	var w workload.Workload
	switch {
	case *tracePath != "":
		f, err := os.Open(*tracePath)
		if err != nil {
			fatal(err)
		}
		w, err = trace.Read(f, *tracePath, fstartbench.Functions())
		f.Close()
		if err != nil {
			fatal(err)
		}
	case *wname == fstartbench.Overall:
		w = fstartbench.BuildOverall(*seed, fstartbench.OverallOptions{Count: *count})
	default:
		w = fstartbench.Build(*wname, *seed, fstartbench.Options{Count: *count})
	}
	loose := experiments.CalibrateLoose(w)
	poolMB := loose * *poolFrac

	// Observability: record a trace only when one is exported (the
	// audit is a reduction of the trace, so -audit-out records one), so
	// plain runs stay on the zero-cost disabled path. -metrics-out needs
	// no observer: the export is derived from the run's result.
	var o *obs.Observer
	if *traceOut != "" || *auditOut != "" {
		o = obs.NewObserver()
	}

	if _, err := evict.New(*evictorName); *evictorName != "" && *evictorName != "all" && err != nil {
		refuse("%v", err)
	}
	if _, err := policy.New(*policyName, *seed); *policyName != "all" && *policyName != "MLCR" && err != nil {
		refuse("%v", err)
	}
	where := fmt.Sprintf("pool %.0f MB = %.0f%% of Loose %.0f MB", poolMB, *poolFrac*100, loose)
	var routers []string
	if *workers > 1 {
		if *traceOut != "" || *auditOut != "" {
			refuse("cluster runs support -metrics-out only (per-worker traces stay per-platform)")
		}
		if *evictorName == "all" {
			refuse("pick one evictor for cluster runs (or use -routing all for the router comparison)")
		}
		if *policyName == "all" || *policyName == "MLCR" {
			refuse("policy %q is not available per-worker (cluster schedulers: %s)",
				*policyName, strings.Join(policy.Names(), ", "))
		}
		if _, err := cluster.NewRouter(*routing, cluster.RouterConfig{Workers: *workers}); *routing == "all" {
			routers = cluster.RouterNames()
		} else if err != nil {
			refuse("%v", err)
		}
		where = fmt.Sprintf("%d workers, %s", *workers, where)
	}

	// The comparison modes: one sweep, one table.
	sweep := *evictorName == "all" || *policyName == "all" || routers != nil
	if sweep && (o != nil || *metricsOut != "") {
		refuse("observability outputs need a single run, not a comparison")
	}
	opts := experiments.Options{Seed: *seed, Episodes: *episodes, Parallelism: *parallel}
	what, evictors := *policyName+" across routers", []string{*evictorName}
	var setups []experiments.Setup
	switch {
	case *evictorName == "all":
		what, setups, evictors = "scheduler × evictor grid", experiments.GridSetups(*seed), evict.Names()
	case *policyName == "all":
		what = "all policies"
		setups = append(experiments.Baselines(), experiments.SetupOf("Cost-Greedy", 0),
			experiments.MLCRSetup(experiments.TrainMLCR(w, loose, []float64{*poolFrac}, opts)))
	case *policyName == "MLCR" && *modelPath != "":
		sched, err := mlcr.LoadFile(*modelPath)
		if err != nil {
			fatal(err)
		}
		setups = []experiments.Setup{experiments.MLCRSetup(sched)}
	case *policyName == "MLCR":
		setups = []experiments.Setup{experiments.MLCRSetup(experiments.TrainMLCR(w, loose, []float64{*poolFrac}, opts))}
	default:
		setups = []experiments.Setup{experiments.SetupOf(*policyName, *seed)}
	}
	if sweep {
		t := experiments.Sweep(w, *workers, poolMB, routers, setups, evictors, opts).Table()
		t.Title = fmt.Sprintf("%s on %s (%s)", what, w.Name, where)
		t.Render(os.Stdout)
		return
	}
	setup := setups[0]
	setup.Evictor = *evictorName
	if *workers > 1 {
		runCluster(w, *workers, *routing, setup, poolMB, where, *seed, *parallel, *metricsOut)
		return
	}
	res := platform.New(platform.Config{PoolCapacityMB: poolMB, Evictor: setup.NewEvictor(), Obs: o}, setup.New(0)).Run(w)

	if *traceOut != "" {
		writeOut(*traceOut, func(f *os.File) error {
			if strings.HasSuffix(*traceOut, ".json") {
				return o.Trace.WriteChromeTrace(f)
			}
			return o.Trace.WriteJSONL(f)
		})
		fmt.Fprintf(os.Stderr, "trace written to %s (%d events)\n", *traceOut, o.Trace.Len())
	}
	if *metricsOut != "" {
		writeOut(*metricsOut, func(f *os.File) error { return obs.WritePrometheus(f, res.ExportMetrics()) })
		fmt.Fprintf(os.Stderr, "metrics written to %s\n", *metricsOut)
	}
	if *auditOut != "" {
		writeOut(*auditOut, func(f *os.File) error { return o.Trace.WriteAuditJSONL(f) })
		fmt.Fprintf(os.Stderr, "audit log written to %s (%d decisions)\n", *auditOut, res.Metrics.Count())
	}

	t := &report.Table{
		Title:  fmt.Sprintf("%s on %s (%s)", *policyName, w.Name, where),
		Header: []string{"metric", "value"},
	}
	m := &res.Metrics
	t.AddRow("invocations", m.Count())
	t.AddRow("total startup latency", m.TotalStartup())
	t.AddRow("average startup latency", m.AvgStartup())
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		t.AddRow(fmt.Sprintf("p%.3g startup latency", q*100), m.StartupQuantile(q))
	}
	t.AddRow("cold starts", m.ColdStarts())
	lv := m.ByLevel()
	t.AddRow("warm starts (L1/L2/L3)", fmt.Sprintf("%d/%d/%d", lv[1], lv[2], lv[3]))
	t.AddRow("containers created", res.ContainersCreated)
	t.AddRow("pool evictions", res.PoolStats.Evictions)
	t.AddRow("pool rejections", res.PoolStats.Rejections)
	t.AddRow("pool expirations", res.PoolStats.Expirations)
	t.AddRow("peak pool memory (MB)", fmt.Sprintf("%.0f", res.PoolStats.PeakUsedMB))
	t.AddRow("peak running memory (MB)", fmt.Sprintf("%.0f", res.PeakRunningMB))
	t.AddRow("cleaner repacks", res.CleanerOps.Repacks)
	t.Render(os.Stdout)
}

// runCluster replays the workload through the multi-worker deployment
// under one router. Per-worker schedulers come from the policy registry
// (MLCR needs offline training and stays single-worker).
func runCluster(w workload.Workload, workers int, routing string, setup experiments.Setup, poolMB float64, where string, seed int64, parallel int, metricsOut string) {
	res := cluster.Run(cluster.Config{
		Workers:        workers,
		PoolCapacityMB: poolMB,
		Router:         routing,
		RouterSeed:     seed,
		NewScheduler:   setup.New,
		NewEvictor:     func(int) pool.Evictor { return setup.NewEvictor() },
		Parallelism:    parallel,
	}, w)

	if metricsOut != "" {
		writeOut(metricsOut, func(f *os.File) error { return obs.WritePrometheus(f, res.ExportMetrics(nil)) })
		fmt.Fprintf(os.Stderr, "metrics written to %s\n", metricsOut)
	}

	t := &report.Table{
		Title:  fmt.Sprintf("%s/%s on %s (%s)", setup.Name, routing, w.Name, where),
		Header: []string{"metric", "value"},
	}
	c := experiments.CellOf(routing, setup.Name, res)
	created, idle := 0, 0
	for i, pr := range res.PerWorker {
		created += pr.ContainersCreated
		if res.Routed[i] == 0 {
			idle++
		}
	}
	t.AddRow("invocations", c.Invocations)
	t.AddRow("total startup latency", c.TotalStartup)
	t.AddRow("average startup latency", c.AvgStartup())
	t.AddRow("cold starts", c.ColdStarts)
	t.AddRow("containers created", created)
	t.AddRow("pool evictions", c.Evictions)
	t.AddRow("busiest worker (invocations)", c.Busiest)
	t.AddRow("idle workers", idle)
	t.Render(os.Stdout)
}

// writeOut creates path and runs the writer against it.
func writeOut(path string, write func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := write(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "mlcr-sim: %v\n", err)
	os.Exit(1)
}

// refuse reports a usage error and exits with status 2.
func refuse(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mlcr-sim: "+format+"\n", args...)
	os.Exit(2)
}
