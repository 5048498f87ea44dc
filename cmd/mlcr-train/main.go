// Command mlcr-train trains the MLCR DQN scheduler offline (Algorithm 1)
// on an FStartBench workload and saves the model, its configuration with
// its weights, for mlcr-sim and mlcr-server to load.
//
// Usage:
//
//	mlcr-train -workload Overall -episodes 48 -out mlcr.gob
//	mlcr-train -workload Peak -episodes 36 -out peak.gob -v
//	mlcr-train -episodes 24 -trace-out train.jsonl -metrics-out train.prom
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mlcr/internal/drl"
	"mlcr/internal/experiments"
	"mlcr/internal/fstartbench"
	"mlcr/internal/mlcr"
	"mlcr/internal/obs"
	"mlcr/internal/workload"
)

func main() {
	wname := flag.String("workload", "Overall",
		"workload: Overall, LO-Sim, HI-Sim, LO-Var, HI-Var, Uniform, Peak, Random")
	episodes := flag.Int("episodes", 36, "training episodes")
	seed := flag.Int64("seed", 1, "random seed (workload + weights + exploration)")
	out := flag.String("out", "mlcr.gob", "output model path")
	verbose := flag.Bool("v", false, "print per-episode training stats")
	traceOut := flag.String("trace-out", "", "write per-update training telemetry as a JSONL event trace")
	metricsOut := flag.String("metrics-out", "", "write a Prometheus exposition-format snapshot of training metrics")
	flag.Parse()
	if *episodes < 1 {
		fmt.Fprintf(os.Stderr, "mlcr-train: -episodes must be >= 1, got %d\n", *episodes)
		os.Exit(2)
	}

	var w workload.Workload
	if *wname == fstartbench.Overall {
		w = fstartbench.BuildOverall(*seed, fstartbench.OverallOptions{})
	} else {
		w = fstartbench.Build(*wname, *seed, fstartbench.Options{})
	}
	loose := experiments.CalibrateLoose(w)
	fmt.Printf("workload %s: %d invocations over %v; Loose pool %.0f MB\n",
		w.Name, len(w.Invocations), w.Duration().Round(time.Second), loose)

	s := mlcr.New(experiments.TrainConfig(loose, experiments.Options{Seed: *seed, Episodes: *episodes}))

	// Training telemetry: every DQN gradient update becomes a TrainStep
	// trace event. The metrics export is read off the last update and
	// the last episode after training.
	var (
		o           *obs.Observer
		onTrainStep func(drl.TrainStepStats)
	)
	if *traceOut != "" {
		o = obs.NewObserver()
		onTrainStep = func(st drl.TrainStepStats) {
			o.Emit(obs.Event{
				Kind: obs.KindTrainStep, Seq: -1, Fn: -1,
				Step: st.Update, Value: st.TDError,
			})
		}
	}

	start := time.Now()
	fracs := []float64{0.2, 0.5, 1.0}
	eps := s.Train(mlcr.TrainOptions{
		Episodes:       *episodes,
		PoolForEpisode: func(ep int) float64 { return loose * fracs[ep%len(fracs)] },
		Workload:       func(int) workload.Workload { return w },
		OnTrainStep:    onTrainStep,
		OnEpisode: func(e mlcr.EpisodeStats) {
			if *verbose {
				fmt.Printf("  episode %3d: total startup %v, cold starts %d, ε=%.2f, TD=%.4f\n",
					e.Episode, e.TotalStartup.Round(time.Second), e.ColdStarts, e.Epsilon, e.TDError)
			}
		},
	})
	fmt.Printf("trained %d episodes in %v (%d DQN updates)\n",
		*episodes, time.Since(start).Round(time.Second), s.Agent().Updates())

	writeOut(*out, func(f *os.File) error { return s.Save(f) })
	fmt.Printf("model saved to %s\n", *out)

	if *traceOut != "" {
		writeOut(*traceOut, func(f *os.File) error { return o.Trace.WriteJSONL(f) })
		fmt.Printf("training trace written to %s (%d events)\n", *traceOut, o.Trace.Len())
	}
	if *metricsOut != "" {
		last := eps[len(eps)-1]
		writeOut(*metricsOut, func(f *os.File) error {
			return obs.WritePrometheus(f, []obs.Metric{
				{Name: "mlcr_train_steps_total", Help: "DQN gradient updates applied.", Type: obs.TypeCounter, Value: float64(s.Agent().Updates())},
				{Name: "mlcr_train_episodes_total", Help: "Training episodes completed.", Type: obs.TypeCounter, Value: float64(len(eps))},
				{Name: "mlcr_train_td_error", Help: "Mean absolute TD error of the latest update.", Type: obs.TypeGauge, Value: last.TDError},
				{Name: "mlcr_train_epsilon", Help: "Current exploration rate.", Type: obs.TypeGauge, Value: last.Epsilon},
			})
		})
		fmt.Printf("training metrics written to %s\n", *metricsOut)
	}
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
	fmt.Fprintf(os.Stderr, "mlcr-train: %v\n", err)
	os.Exit(1)
}
