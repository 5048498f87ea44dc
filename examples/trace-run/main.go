// Trace-run: replay the HI-Sim workload under the trained MLCR scheduler
// and the Greedy-Match baseline concurrently, each run with its own
// observability bundle attached, then export the MLCR run as a Chrome
// trace (load trace.json in chrome://tracing or ui.perfetto.dev) and a
// Prometheus metrics snapshot, and summarize why the pool killed
// containers.
package main

import (
	"fmt"
	"os"
	"sort"

	"mlcr/internal/experiments"
	"mlcr/internal/fstartbench"
	"mlcr/internal/obs"
	"mlcr/internal/runner"
)

func main() {
	// 1. Build the high-load similar-function workload and size the pool
	//    at half of the calibrated Loose size, so eviction pressure is
	//    visible in the trace.
	w := fstartbench.Build(fstartbench.HiSim, 42, fstartbench.Options{})
	loose := experiments.CalibrateLoose(w)
	poolMB := loose * 0.5
	fmt.Printf("workload %s: %d invocations; pool %.0f MB (50%% of Loose)\n",
		w.Name, len(w.Invocations), poolMB)

	// 2. Train a small MLCR model — a short budget keeps the example
	//    fast; raise Episodes for paper-quality scheduling.
	sched := experiments.TrainMLCR(w, loose, []float64{0.5},
		experiments.Options{Seed: 42, Episodes: 8})

	// 3. Replay MLCR and the Greedy-Match baseline concurrently through
	//    the parallel harness, each run observing into its own bundle
	//    (observers are stateful and must never be shared across runs).
	setups := []experiments.Setup{experiments.MLCRSetup(sched), experiments.SetupOf("Greedy-Match", 0)}
	observers := make([]*obs.Observer, len(setups))
	specs := make([]runner.Spec, len(setups))
	for i, s := range setups {
		observers[i] = obs.NewObserver()
		specs[i] = s.Spec(w, poolMB, observers[i])
	}
	results := runner.Run(specs, runner.Options{})
	for i, s := range setups {
		fmt.Printf("%s: total startup %v, cold starts %d, %d trace events, %d audited decisions\n",
			s.Name, results[i].Metrics.TotalStartup(), results[i].Metrics.ColdStarts(),
			observers[i].Trace.Len(), observers[i].Audit.Len())
	}
	o := observers[0] // the MLCR run's bundle drives the exports below

	// 4. Export: Chrome trace_event JSON plus a Prometheus snapshot.
	write("trace.json", func(f *os.File) error { return o.Trace.WriteChromeTrace(f) })
	write("metrics.prom", func(f *os.File) error { return o.Metrics.WritePrometheus(f) })
	fmt.Println("wrote trace.json (open in chrome://tracing) and metrics.prom")

	// 5. Mine the trace: top eviction reasons, straight from the
	//    recorded events.
	byReason := map[string]int{}
	for _, e := range o.Trace.Events() {
		if e.Kind == obs.KindContainerEvicted {
			byReason[e.Detail]++
		}
	}
	type rc struct {
		reason string
		n      int
	}
	var reasons []rc
	for r, n := range byReason {
		reasons = append(reasons, rc{r, n})
	}
	sort.Slice(reasons, func(i, j int) bool {
		if reasons[i].n != reasons[j].n {
			return reasons[i].n > reasons[j].n
		}
		return reasons[i].reason < reasons[j].reason
	})
	if len(reasons) > 5 {
		reasons = reasons[:5]
	}
	fmt.Println("\ntop eviction reasons:")
	if len(reasons) == 0 {
		fmt.Println("  (none — the pool never evicted)")
	}
	for _, r := range reasons {
		fmt.Printf("  %-10s %d\n", r.reason, r.n)
	}
}

func write(path string, fn func(*os.File) error) {
	f, err := os.Create(path)
	if err == nil {
		err = fn(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace-run: %v\n", err)
		os.Exit(1)
	}
}
