// Package mlcr_test holds the repository-level benchmark harness: one
// benchmark per table/figure of the paper (see DESIGN.md's experiment
// index) plus micro-benchmarks of the hot paths and ablations of MLCR's
// design choices.
//
// Figure benchmarks here run with a reduced training budget so that
// `go test -bench=.` finishes in minutes; the full-scale regeneration
// (longer DQN training, more repeats) is `go run ./cmd/mlcr-bench -fig all`.
// Latency results are attached as custom benchmark metrics
// (startup-s, cold-starts) so shapes are visible in the bench output.
package mlcr_test

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"mlcr/internal/cluster"
	"mlcr/internal/container"
	"mlcr/internal/core"
	"mlcr/internal/drl"
	"mlcr/internal/evict"
	"mlcr/internal/experiments"
	"mlcr/internal/fstartbench"
	"mlcr/internal/image"
	"mlcr/internal/mlcr"
	"mlcr/internal/nn"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/pool"
	"mlcr/internal/workload"
)

// benchOpts is the reduced-budget experiment configuration used by the
// figure benchmarks.
func benchOpts() experiments.Options {
	return experiments.Options{Seed: 1, Repeats: 1, Episodes: 6}
}

// --- Figure benchmarks (one per table/figure, DESIGN.md §4) ---

func BenchmarkFig1Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1()
		if i == 0 {
			b.ReportMetric(r.MaxSpeedup, "max-speedup-x")
		}
	}
}

func BenchmarkFig2GreedyVsOptimal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2()
		if i == 0 {
			b.ReportMetric(r.GreedyTotal.Seconds(), "greedy-s")
			b.ReportMetric(r.OptimalTotal.Seconds(), "optimal-s")
		}
	}
}

func BenchmarkFig3DockerHub(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3(1)
		if i == 0 {
			b.ReportMetric(100*r.TopOSShare, "top4-os-%")
		}
	}
}

func BenchmarkFig8Overall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig8(benchOpts())
		if i == 0 {
			for _, p := range experiments.PolicyNames {
				c := r.Cell(p, "Tight")
				b.ReportMetric(c.TotalStartup.Seconds(), p+"-tight-s")
			}
		}
	}
}

func BenchmarkFig9Cumulative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig9(benchOpts(), 50)
		if i == 0 {
			b.ReportMetric(r.GreedyTotal.Seconds(), "greedy-s")
			b.ReportMetric(r.MLCRTotal.Seconds(), "mlcr-s")
		}
	}
}

func BenchmarkFig10Memory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig10(benchOpts())
		if i == 0 {
			for _, row := range r.Rows {
				b.ReportMetric(row.PeakPoolMB, row.Policy+"-peak-mb")
			}
		}
	}
}

func benchmarkFig11(b *testing.B, group string) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig11(group, benchOpts())
		if i == 0 {
			for _, c := range r.Cells {
				if c.Policy == "MLCR" {
					b.ReportMetric(c.MeanTotal.Seconds(), c.Workload+"-mlcr-s")
				}
			}
		}
	}
}

func BenchmarkFig11Similarity(b *testing.B) { benchmarkFig11(b, "similarity") }
func BenchmarkFig11Variance(b *testing.B)   { benchmarkFig11(b, "variance") }
func BenchmarkFig11Arrival(b *testing.B)    { benchmarkFig11(b, "arrival") }

// --- Section VI-D: scheduler overhead ---

var (
	inferOnce  sync.Once
	inferSched *mlcr.Scheduler
	inferState drl.State
)

// setupInference trains a small model once and captures a representative
// decision state (several warm containers, one incoming function).
func setupInference() {
	w := fstartbench.Build(fstartbench.Uniform, 1, fstartbench.Options{Count: 80})
	loose := experiments.CalibrateLoose(w)
	inferSched = experiments.TrainMLCR(w, loose, []float64{0.5}, experiments.Options{Seed: 1, Episodes: 2})

	feat := &drl.Featurizer{Slots: inferSched.Config().Slots, NormMB: loose}
	captured := false
	spy := spyScheduler{feat: feat, out: &inferState, captured: &captured}
	p := platform.New(platform.Config{PoolCapacityMB: loose, Evictor: evict.NewLRU()}, spy)
	p.Run(w)
	if !captured {
		panic("bench: no decision state captured")
	}
}

type spyScheduler struct {
	feat     *drl.Featurizer
	out      *drl.State
	captured *bool
}

func (spyScheduler) Name() string { return "spy" }
func (s spyScheduler) Schedule(env platform.Env, inv *workload.Invocation) int {
	if env.Pool.Len() >= 3 {
		*s.out = s.feat.Build(env, inv)
		*s.captured = true
	}
	return platform.ColdStart
}
func (spyScheduler) OnResult(platform.Env, *workload.Invocation, platform.Result) {}

// BenchmarkInferenceLatency measures one MLCR scheduling decision
// (Q-network forward + masked argmax) — the paper reports 3–4 ms on a
// V100 (Section VI-D).
func BenchmarkInferenceLatency(b *testing.B) {
	inferOnce.Do(setupInference)
	agent := inferSched.Agent()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.SelectAction(inferState, 0)
	}
}

// BenchmarkDecisionEndToEnd additionally includes featurization (pool
// scan + multi-level matching), the full per-request scheduling cost.
func BenchmarkDecisionEndToEnd(b *testing.B) {
	inferOnce.Do(setupInference)
	w := fstartbench.Build(fstartbench.Uniform, 2, fstartbench.Options{Count: 200})
	loose := experiments.CalibrateLoose(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.RunOnce(experiments.MLCRSetup(inferSched), w, loose*0.5)
		b.ReportMetric(float64(res.Metrics.Count()), "decisions")
	}
}

// --- Ablation benchmarks (DESIGN.md design choices) ---

// BenchmarkAblationMatching compares reuse depth: same-function only
// (LRU) vs level-based greedy vs cost-aware greedy — isolating the value
// of multi-level matching itself.
func BenchmarkAblationMatching(b *testing.B) {
	w := fstartbench.BuildOverall(1, fstartbench.OverallOptions{})
	loose := experiments.CalibrateLoose(w)
	setups := append(experiments.Baselines(), experiments.CostGreedySetup())
	for i := 0; i < b.N; i++ {
		for _, s := range setups {
			res := experiments.RunOnce(s, w, loose*0.2)
			if i == 0 {
				b.ReportMetric(res.Metrics.TotalStartup().Seconds(), s.Name+"-s")
			}
		}
	}
}

// BenchmarkAblationEviction compares eviction policies under an
// identical same-function reuse rule (Tight pool).
func BenchmarkAblationEviction(b *testing.B) {
	w := fstartbench.BuildOverall(1, fstartbench.OverallOptions{})
	loose := experiments.CalibrateLoose(w)
	for i := 0; i < b.N; i++ {
		for _, s := range experiments.Baselines()[:3] { // LRU, FaasCache, KeepAlive
			res := experiments.RunOnce(s, w, loose*0.2)
			if i == 0 {
				b.ReportMetric(float64(res.PoolStats.Evictions), s.Name+"-evictions")
				b.ReportMetric(res.Metrics.TotalStartup().Seconds(), s.Name+"-s")
			}
		}
	}
}

// BenchmarkAblationShaping contrasts raw rewards against potential-based
// shaping on a short training run (same budget, same seed).
func BenchmarkAblationShaping(b *testing.B) {
	w := fstartbench.Build(fstartbench.Peak, 1, fstartbench.Options{Count: 120})
	loose := experiments.CalibrateLoose(w)
	for i := 0; i < b.N; i++ {
		for _, cfg := range []struct {
			name    string
			shaping float64
		}{{"raw", 0}, {"shaped", 1}} {
			opts := experiments.Options{Seed: 1, Episodes: 6}
			opts.MLCR.ShapingWeight = cfg.shaping
			s := experiments.TrainMLCR(w, loose, []float64{0.5}, opts)
			res := experiments.RunOnce(experiments.MLCRSetup(s), w, loose*0.5)
			if i == 0 {
				b.ReportMetric(res.Metrics.TotalStartup().Seconds(), cfg.name+"-s")
			}
		}
	}
}

// --- Micro-benchmarks of the hot paths ---

func BenchmarkMatch(b *testing.B) {
	fns := fstartbench.Functions()
	f := fstartbench.ByID(fns, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range fns {
			core.Match(f.Image, g.Image)
		}
	}
}

func BenchmarkJaccard(b *testing.B) {
	fns := fstartbench.Functions()
	x, y := fstartbench.ByID(fns, 7).Image, fstartbench.ByID(fns, 13).Image
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		image.Jaccard(x, y)
	}
}

func BenchmarkPoolAddTake(b *testing.B) {
	f := fstartbench.ByID(fstartbench.Functions(), 5)
	p := pool.New(1<<30, evict.NewLRU())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inv := &workload.Invocation{Fn: f, Exec: f.Exec}
		c, _ := container.NewCold(i+1, inv, time.Duration(i)*time.Millisecond)
		c.Complete(c.BusyUntil)
		p.Add(c, time.Second, c.IdleSince)
		p.Take(c.ID, c.IdleSince)
	}
}

// BenchmarkFeaturize measures state construction: scanning the pool,
// multi-level matching every idle container and building the token
// matrix.
func BenchmarkFeaturize(b *testing.B) {
	feat := &drl.Featurizer{Slots: 8, NormMB: 2048}
	w := fstartbench.Build(fstartbench.Uniform, 3, fstartbench.Options{Count: 40})
	loose := experiments.CalibrateLoose(w)
	cap := envCapture{feat: feat}
	p := platform.New(platform.Config{PoolCapacityMB: loose, Evictor: evict.NewLRU()}, &cap)
	p.Run(w)
	if cap.inv == nil {
		b.Fatal("no decision point captured")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feat.Build(cap.env, cap.inv)
	}
}

// envCapture records the last decision point with a warm pool.
type envCapture struct {
	feat *drl.Featurizer
	env  platform.Env
	inv  *workload.Invocation
}

func (*envCapture) Name() string { return "env-capture" }
func (c *envCapture) Schedule(env platform.Env, inv *workload.Invocation) int {
	if env.Pool.Len() >= 3 {
		c.env, c.inv = env, inv
	}
	return platform.ColdStart
}
func (*envCapture) OnResult(platform.Env, *workload.Invocation, platform.Result) {}

func BenchmarkQNetworkForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	q := drl.NewQNetwork(drl.QConfig{Tokens: 6, Width: 39, Actions: 5, Dim: 24, Heads: 2, Hidden: 48}, rng)
	x := nn.NewTensor(6, 39).Randn(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Forward(x)
	}
}

func BenchmarkDQNTrainStep(b *testing.B) {
	cfg := drl.AgentConfig{
		Q:         drl.QConfig{Tokens: 6, Width: 39, Actions: 5, Dim: 24, Heads: 2, Hidden: 48},
		BatchSize: 32,
	}
	agent := drl.NewAgent(cfg, 1)
	rng := rand.New(rand.NewSource(2))
	mask := []bool{true, true, true, true, true}
	for i := 0; i < 256; i++ {
		s := nn.NewTensor(6, 39).Randn(rng, 1)
		next := nn.NewTensor(6, 39).Randn(rng, 1)
		agent.Observe(drl.Transition{State: s, Action: i % 5, Reward: rng.Float64(), Next: next, NextMask: mask})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.TrainStep()
	}
}

func BenchmarkPlatformRunGreedy(b *testing.B) {
	w := fstartbench.BuildOverall(1, fstartbench.OverallOptions{})
	loose := experiments.CalibrateLoose(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunOnce(experiments.Baselines()[3], w, loose*0.5)
	}
}

func BenchmarkWorkloadGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fstartbench.BuildOverall(int64(i), fstartbench.OverallOptions{})
	}
}

// BenchmarkClusterRouting compares front-end routing policies on a
// three-worker cluster (Figure 4's deployment model).
func BenchmarkClusterRouting(b *testing.B) {
	w := fstartbench.Build(fstartbench.Uniform, 1, fstartbench.Options{})
	loose := experiments.CalibrateLoose(w)
	for i := 0; i < b.N; i++ {
		for _, r := range []string{"round-robin", "by-function", "least-loaded"} {
			res := cluster.Run(cluster.Config{
				Workers:        3,
				PoolCapacityMB: loose * 0.5,
				Router:         r,
				NewScheduler:   func(int) platform.Scheduler { return policy.NewGreedyMatch() },
			}, w)
			if i == 0 {
				b.ReportMetric(res.TotalStartup().Seconds(), r+"-s")
			}
		}
	}
}
