// Package experiments contains one driver per table and figure of the
// paper's evaluation (Section VI), plus the motivating experiments of
// Sections I–III. Each driver returns structured results and can render
// them as a report.Table; cmd/mlcr-bench and the repository benchmarks
// call these drivers to regenerate every figure.
//
// The trained figures (Fig 8–11, the overhead table and the ablation)
// are methods on a Study, which trains each model once.
package experiments

import (
	"math"
	"time"

	"mlcr/internal/evict"
	"mlcr/internal/mlcr"
	"mlcr/internal/obs"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/pool"
	"mlcr/internal/runner"
	"mlcr/internal/workload"
)

// PolicyNames lists the compared policies in the paper's order.
var PolicyNames = []string{"LRU", "FaasCache", "KeepAlive", "Greedy-Match", "MLCR"}

// Setup carries a factory building a fresh scheduler and its paired
// eviction policy. New is called once per run, from the goroutine
// executing that run, and must return instances used by no other run —
// schedulers and evictors are stateful, and the parallel harness
// (internal/runner) panics when two runs share a scheduler instance.
type Setup struct {
	Name string
	New  func() (platform.Scheduler, pool.Evictor)
}

// Spec converts the setup into a runner.Spec for the parallel harness.
// The observer may be nil; when set it must be dedicated to this run.
func (s Setup) Spec(w workload.Workload, poolMB float64, o *obs.Observer) runner.Spec {
	sp := runner.Spec{Name: s.Name, Workload: w, PoolCapacityMB: poolMB, New: s.New}
	if o != nil {
		sp.NewObserver = func() *obs.Observer { return o }
	}
	return sp
}

// Baselines returns the paper's four comparison policies: PolicyNames
// without MLCR, which needs training (see MLCRSetup).
func Baselines() []Setup {
	var out []Setup
	for _, name := range PolicyNames {
		if name != "MLCR" {
			out = append(out, SetupOf(name, 0))
		}
	}
	return out
}

// SetupOf returns the Setup of a registered scheduler (policy.Names)
// with its default evictor pairing; seed feeds learned schedulers
// (Tabular-Q). It panics on an unknown name with the registry's list:
// callers with a user-supplied name check policy.New first.
func SetupOf(name string, seed int64) Setup {
	if _, err := policy.New(name, seed); err != nil {
		panic(err)
	}
	return Setup{Name: name, New: func() (platform.Scheduler, pool.Evictor) {
		s, _ := policy.New(name, seed)
		return s, s.Evictor()
	}}
}

// Options tune the experiment harness. The zero value gives CPU-friendly
// defaults; the paper's full-scale settings (50 repeats, long training)
// are reachable by raising Repeats/Episodes.
type Options struct {
	// Seed drives workload generation and MLCR initialization.
	Seed int64
	// Repeats is the number of workload seeds averaged per data point
	// (the paper repeats 50×; default 3).
	Repeats int
	// Episodes is the MLCR training budget per trained model
	// (default 36).
	Episodes int
	// MLCR overrides the scheduler configuration (Slots etc.); unset
	// fields take mlcr's defaults, or TrainConfig's derivations.
	MLCR mlcr.Config
	// Parallelism bounds concurrent simulation runs inside the harness
	// (internal/runner): <=0 means GOMAXPROCS, 1 forces sequential.
	// Results are bit-identical at any setting.
	Parallelism int
	// Evictor, when non-empty, overrides every setup's default eviction
	// policy with the named one from the evict registry (see
	// evict.Names), adding the eviction-policy axis to Fig8/Fig11 and
	// the comparison tables.
	Evictor string
}

// runnerOpts converts the experiment options into harness options.
func (o Options) runnerOpts() runner.Options {
	return runner.Options{Parallelism: o.Parallelism}
}

// WithDefaults fills unset fields. The 36 curriculum episodes were
// selected with the MLCR defaults by a sweep on the overall workload;
// they balance CPU training time against solution quality.
func (o Options) WithDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Repeats == 0 {
		o.Repeats = 3
	}
	if o.Episodes == 0 {
		o.Episodes = 36
	}
	return o
}

// WithEvictor re-pairs each setup's scheduler with the named eviction
// policy from the evict registry, keeping setup names (the policy axis
// is reported separately). An empty name returns the setups unchanged;
// an unknown one panics with the registry's name list. Every run
// constructs its own policy instance, so results stay bit-identical at
// any parallelism.
func WithEvictor(setups []Setup, name string) []Setup {
	if name == "" {
		return setups
	}
	if _, err := evict.New(name); err != nil {
		panic(err)
	}
	out := make([]Setup, len(setups))
	for i, s := range setups {
		mk := s.New
		out[i] = Setup{Name: s.Name, New: func() (platform.Scheduler, pool.Evictor) {
			sched, _ := mk()
			return sched, evict.MustNew(name)
		}}
	}
	return out
}

// RunOnce replays a workload through a fresh platform with the given
// setup and pool capacity. It is a single-spec run of the parallel
// harness (internal/runner).
func RunOnce(s Setup, w workload.Workload, poolMB float64) *platform.RunResult {
	return RunObserved(s, w, poolMB, nil)
}

// RunObserved is RunOnce with an observability bundle attached to the
// platform (nil disables instrumentation; see internal/obs).
func RunObserved(s Setup, w workload.Workload, poolMB float64, o *obs.Observer) *platform.RunResult {
	return runner.Run([]runner.Spec{s.Spec(w, poolMB, o)}, runner.Options{Parallelism: 1})[0]
}

// RunAll evaluates every setup on the same workload and pool capacity
// through the parallel harness, returning results in setup order. The
// result slice is bit-identical at any parallelism.
func RunAll(setups []Setup, w workload.Workload, poolMB float64, opts Options) []*platform.RunResult {
	specs := make([]runner.Spec, len(setups))
	for i, s := range setups {
		specs[i] = s.Spec(w, poolMB, nil)
	}
	return runner.Run(specs, opts.runnerOpts())
}

// TrainMLCR trains one MLCR scheduler on the given workload with a
// pool-size curriculum (Algorithm 1, offline): training episodes cycle
// through looseMB×fracs so a single model is robust across the pool
// settings it will be evaluated on. It returns the trained scheduler,
// which holds no training state.
func TrainMLCR(w workload.Workload, looseMB float64, fracs []float64, opts Options) *mlcr.Scheduler {
	opts = opts.WithDefaults()
	if len(fracs) == 0 {
		fracs = []float64{1}
	}
	s := mlcr.New(TrainConfig(looseMB, opts))
	s.Train(mlcr.TrainOptions{
		Episodes:       opts.Episodes,
		PoolForEpisode: func(ep int) float64 { return looseMB * fracs[ep%len(fracs)] },
		Workload:       func(int) workload.Workload { return w },
	})
	return s
}

// TrainConfig is the resolved MLCR configuration that TrainMLCR trains
// under opts on a workload whose Loose pool is looseMB, and so the one a
// trained model carries. Unset, the seed is the training seed, the
// featurizer's memory norm is half of Loose (0, the featurizer's own
// default, when Loose is 0), and ε decays over 2/3 of the episode
// budget, leaving greedy-refinement episodes at the end; mlcr's defaults
// fill the rest.
func TrainConfig(looseMB float64, opts Options) mlcr.Config {
	opts = opts.WithDefaults()
	cfg := opts.MLCR
	if cfg.Seed == 0 {
		cfg.Seed = opts.Seed
	}
	if cfg.NormMB == 0 {
		cfg.NormMB = looseMB * 0.5
	}
	if cfg.EpsilonDecayEpisodes == 0 {
		cfg.EpsilonDecayEpisodes = max(opts.Episodes*2/3, 1)
	}
	return cfg.WithDefaults()
}

// MarginCandidates are the deviation-margin values considered by
// TuneMargin, from "trust the network" to "pure greedy fallback".
var MarginCandidates = []float64{0.05, 0.1, 0.2, 0.5, math.Inf(1)}

// TuneMargin selects the deviation margin that minimizes total startup
// latency for a trained scheduler on one pool size, by replaying the
// training workload. The figures score MLCR on that same trace, so the
// gate is chosen in-sample, not validated on held-out data (ROADMAP item
// 21). It leaves the scheduler configured with the winning margin and
// returns it.
// Candidates are evaluated concurrently on clones that share the
// trained weights (the margin travels with each clone), and ties break
// toward the earlier candidate — the same selection the sequential loop
// made. The +Inf candidate runs no forward pass at all.
func TuneMargin(s *mlcr.Scheduler, w workload.Workload, poolMB float64, parallelism int) float64 {
	specs := make([]runner.Spec, len(MarginCandidates))
	for i, m := range MarginCandidates {
		m := m
		specs[i] = runner.Spec{
			Name: "MLCR-margin", Workload: w, PoolCapacityMB: poolMB,
			New: func() (platform.Scheduler, pool.Evictor) {
				c := s.Clone()
				c.SetDeviationMargin(m)
				return c, c.Evictor()
			},
		}
	}
	results := runner.Run(specs, runner.Options{Parallelism: parallelism})
	best, bestTotal := MarginCandidates[0], time.Duration(1<<62-1)
	for i, res := range results {
		if total := res.Metrics.TotalStartup(); total < bestTotal {
			best, bestTotal = MarginCandidates[i], total
		}
	}
	s.SetDeviationMargin(best)
	return best
}

// fracsOf returns the pools' fractions of Loose: the training curriculum
// matching an evaluation pool grid.
func fracsOf(pools []PoolSize) []float64 {
	out := make([]float64, len(pools))
	for i, p := range pools {
		out[i] = p.Frac
	}
	return out
}

// MLCRSetup wraps a trained scheduler as a Setup. Each New call returns
// a clone, never s itself: inference reuses the scheduler's featurizer
// and forward-pass workspaces, so concurrent runs must not share one
// instance, while the frozen weights they read are shared. A clone makes
// exactly the decisions the original would, including its deviation
// margin at clone time.
func MLCRSetup(s *mlcr.Scheduler) Setup {
	return Setup{Name: "MLCR", New: func() (platform.Scheduler, pool.Evictor) {
		c := s.Clone()
		return c, c.Evictor()
	}}
}

// CalibrateLoose computes the paper's Loose pool size for a workload:
// the peak memory of all alive containers (busy plus kept-warm) on a run
// with an unlimited pool (Section VI-A — "the peak memory size of all
// running containers in the cluster"; keep-alive containers remain
// running). The LRU policy drives the probe run.
func CalibrateLoose(w workload.Workload) float64 {
	return platform.New(platform.Config{}, policy.NewLRU()).Run(w).PeakAliveMB
}

// PoolSize is one evaluated pool capacity, as a fraction of Loose.
type PoolSize struct {
	Name string
	Frac float64
}

// PoolScales are the benchmark-evaluation pool sizes as fractions of
// Loose (Section VI-A): 25%, 50%, 75% and 100%.
var PoolScales = []PoolSize{{"25%", 0.25}, {"50%", 0.50}, {"75%", 0.75}, {"100%", 1.00}}

// OverallPools are the Section VI-B pool settings.
var OverallPools = []PoolSize{{"Tight", 0.2}, {"Moderate", 0.5}, {"Loose", 1.0}}
