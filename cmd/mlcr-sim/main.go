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
	"time"

	"mlcr/internal/cluster"
	"mlcr/internal/evict"
	"mlcr/internal/experiments"
	"mlcr/internal/fstartbench"
	"mlcr/internal/obs"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
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
	modelPath := flag.String("model", "", "load a pre-trained MLCR model instead of training")
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

	// Observability: build the bundle only when an output was requested,
	// so plain runs stay on the zero-cost disabled path.
	var o *obs.Observer
	if *traceOut != "" || *metricsOut != "" || *auditOut != "" {
		o = &obs.Observer{}
		if *traceOut != "" {
			o.Tracer = obs.NewRecorder()
		}
		if *metricsOut != "" {
			o.Metrics = obs.NewRegistry()
		}
		if *auditOut != "" {
			o.Audit = &obs.Audit{}
		}
	}

	if *evictorName != "" && *evictorName != "all" {
		if _, err := evict.New(*evictorName); err != nil {
			fmt.Fprintf(os.Stderr, "mlcr-sim: %v\n", err)
			os.Exit(2)
		}
	}

	if *workers > 1 {
		if *traceOut != "" || *auditOut != "" {
			fmt.Fprintln(os.Stderr, "mlcr-sim: cluster runs support -metrics-out only (per-worker traces stay per-platform)")
			os.Exit(2)
		}
		if *evictorName == "all" {
			fmt.Fprintln(os.Stderr, "mlcr-sim: pick one evictor for cluster runs (or use -routing all for the router comparison)")
			os.Exit(2)
		}
		runCluster(w, *workers, *routing, *policyName, *evictorName, poolMB, *poolFrac, loose, *seed, *parallel, o, *metricsOut)
		return
	}

	if *evictorName == "all" {
		if o != nil {
			fmt.Fprintln(os.Stderr, "mlcr-sim: observability outputs need a single run, not -evictor all")
			os.Exit(2)
		}
		opts := experiments.Options{Seed: *seed, Parallelism: *parallel}
		grid := experiments.EvictionGrid(w, poolMB, nil, nil, opts)
		grid.Table().Render(os.Stdout)
		return
	}

	if *policyName == "all" {
		if o != nil {
			fmt.Fprintln(os.Stderr, "mlcr-sim: observability outputs need a single policy, not -policy all")
			os.Exit(2)
		}
		compareAll(w, loose, poolMB, *poolFrac, *seed, *episodes, *parallel, *evictorName)
		return
	}

	var setup experiments.Setup
	if *policyName == "MLCR" {
		opts := experiments.Options{Seed: *seed, Episodes: *episodes}
		var sched = experiments.TrainMLCR(w, loose, []float64{*poolFrac}, opts)
		if *modelPath != "" {
			f, err := os.Open(*modelPath)
			if err != nil {
				fatal(err)
			}
			if err := sched.Load(f); err != nil {
				fatal(err)
			}
			f.Close()
		}
		setup = experiments.MLCRSetup(sched)
	} else {
		if _, err := policy.New(*policyName, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "mlcr-sim: %v\n", err)
			os.Exit(2)
		}
		setup = experiments.SetupOf(*policyName, *seed)
	}
	res := experiments.RunObserved(experiments.WithEvictor([]experiments.Setup{setup}, *evictorName)[0], w, poolMB, o)

	if *traceOut != "" {
		writeOut(*traceOut, func(f *os.File) error {
			rec := o.Recording()
			if strings.HasSuffix(*traceOut, ".json") {
				return rec.WriteChromeTrace(f)
			}
			return rec.WriteJSONL(f)
		})
		fmt.Fprintf(os.Stderr, "trace written to %s (%d events)\n", *traceOut, o.Recording().Len())
	}
	if *metricsOut != "" {
		writeOut(*metricsOut, func(f *os.File) error { return o.Metrics.WritePrometheus(f) })
		fmt.Fprintf(os.Stderr, "metrics written to %s\n", *metricsOut)
	}
	if *auditOut != "" {
		writeOut(*auditOut, func(f *os.File) error { return o.Audit.WriteJSONL(f) })
		fmt.Fprintf(os.Stderr, "audit log written to %s (%d decisions)\n", *auditOut, o.Audit.Len())
	}

	t := &report.Table{
		Title:  fmt.Sprintf("%s on %s (pool %.0f MB = %.0f%% of Loose %.0f MB)", *policyName, w.Name, poolMB, *poolFrac*100, loose),
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

// runCluster replays the workload through the multi-worker deployment:
// one run under the named router, or the full router comparison with
// -routing all. Per-worker schedulers come from the policy registry
// (MLCR needs offline training and stays single-worker).
func runCluster(w workload.Workload, workers int, routing, policyName, evictor string, poolMB, poolFrac, loose float64, seed int64, parallel int, o *obs.Observer, metricsOut string) {
	if _, err := policy.New(policyName, seed); err != nil {
		fmt.Fprintf(os.Stderr, "mlcr-sim: policy %q is not available per-worker (cluster schedulers: %s)\n",
			policyName, strings.Join(policy.Names(), ", "))
		os.Exit(2)
	}
	mkCfg := func(router string) cluster.Config {
		return cluster.Config{
			Workers:        workers,
			PoolCapacityMB: poolMB,
			Router:         router,
			RouterSeed:     seed,
			NewScheduler: func(worker int) platform.Scheduler {
				sched, _ := policy.New(policyName, seed+int64(worker))
				return sched
			},
			Evictor:     evictor,
			Parallelism: parallel,
		}
	}

	if routing == "all" {
		if o != nil {
			fmt.Fprintln(os.Stderr, "mlcr-sim: observability outputs need a single router, not -routing all")
			os.Exit(2)
		}
		t := &report.Table{
			Title: fmt.Sprintf("%s on %s across routers (%d workers, pool %.0f MB = %.0f%% of Loose %.0f MB)",
				policyName, w.Name, workers, poolMB, poolFrac*100, loose),
			Header: []string{"router", "total startup", "avg startup", "cold starts", "busiest worker"},
		}
		for _, router := range cluster.RouterNames() {
			res := cluster.Run(mkCfg(router), w)
			busiest := 0
			for _, n := range res.Routed {
				if n > busiest {
					busiest = n
				}
			}
			var avg time.Duration
			count := 0
			for _, pr := range res.PerWorker {
				count += pr.Metrics.Count()
			}
			if count > 0 {
				avg = res.TotalStartup() / time.Duration(count)
			}
			t.AddRow(router, res.TotalStartup(), avg, res.ColdStarts(), busiest)
		}
		t.Render(os.Stdout)
		return
	}

	if _, err := cluster.NewRouter(routing, cluster.RouterConfig{Workers: workers}); err != nil {
		fmt.Fprintf(os.Stderr, "mlcr-sim: %v\n", err)
		os.Exit(2)
	}
	cfg := mkCfg(routing)
	cfg.Obs = o
	res := cluster.Run(cfg, w)

	if metricsOut != "" {
		writeOut(metricsOut, func(f *os.File) error { return o.Metrics.WritePrometheus(f) })
		fmt.Fprintf(os.Stderr, "metrics written to %s\n", metricsOut)
	}

	t := &report.Table{
		Title: fmt.Sprintf("%s/%s on %s (%d workers, pool %.0f MB = %.0f%% of Loose %.0f MB)",
			policyName, routing, w.Name, workers, poolMB, poolFrac*100, loose),
		Header: []string{"metric", "value"},
	}
	count, created, evictions := 0, 0, 0
	busiest, idle := 0, 0
	for _, pr := range res.PerWorker {
		count += pr.Metrics.Count()
		created += pr.ContainersCreated
		evictions += pr.PoolStats.Evictions
	}
	for _, n := range res.Routed {
		if n > busiest {
			busiest = n
		}
		if n == 0 {
			idle++
		}
	}
	var avg time.Duration
	if count > 0 {
		avg = res.TotalStartup() / time.Duration(count)
	}
	t.AddRow("invocations", count)
	t.AddRow("total startup latency", res.TotalStartup())
	t.AddRow("average startup latency", avg)
	t.AddRow("cold starts", res.ColdStarts())
	t.AddRow("containers created", created)
	t.AddRow("pool evictions", evictions)
	t.AddRow("busiest worker (invocations)", busiest)
	t.AddRow("idle workers", idle)
	t.Render(os.Stdout)
}

// compareAll evaluates every policy on the workload concurrently and
// prints one comparison table (the -policy all mode).
func compareAll(w workload.Workload, loose, poolMB, poolFrac float64, seed int64, episodes, parallel int, evictor string) {
	opts := experiments.Options{Seed: seed, Episodes: episodes, Parallelism: parallel}
	trained := experiments.TrainMLCR(w, loose, []float64{poolFrac}, opts)
	setups := append(experiments.Baselines(), experiments.SetupOf("Cost-Greedy", 0), experiments.MLCRSetup(trained))
	setups = experiments.WithEvictor(setups, evictor)

	results := experiments.RunAll(setups, w, poolMB, opts)

	title := fmt.Sprintf("all policies on %s (pool %.0f MB = %.0f%% of Loose %.0f MB)", w.Name, poolMB, poolFrac*100, loose)
	if evictor != "" {
		title = fmt.Sprintf("all policies on %s, evictor %s (pool %.0f MB = %.0f%% of Loose %.0f MB)", w.Name, evictor, poolMB, poolFrac*100, loose)
	}
	t := &report.Table{
		Title:  title,
		Header: []string{"policy", "total startup", "avg startup", "p99 startup", "cold starts", "evictions"},
	}
	for i, s := range setups {
		m := &results[i].Metrics
		t.AddRow(s.Name, m.TotalStartup(), m.AvgStartup(),
			m.StartupQuantile(0.99),
			m.ColdStarts(), results[i].PoolStats.Evictions)
	}
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
