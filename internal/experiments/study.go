package experiments

import (
	"fmt"
	"sync"

	"mlcr/internal/fstartbench"
	"mlcr/internal/mlcr"
	"mlcr/internal/platform"
	"mlcr/internal/runner"
	"mlcr/internal/workload"
)

// Study runs the evaluation protocol of Section VI: for each seed, build
// the trace, calibrate Loose, train MLCR offline, then replay every
// policy per pool size. Fig 8–11, the overhead table and the ablation
// are its methods: Fig 8 and Fig 11 reduce the matrix its sweep returns,
// and every one of them takes its models from its memo.
//
// A study trains each distinct model once. Its memo keys a trained model
// by everything training reads, so the figures that train the same model
// (Fig 8's first repeat, Fig 9, Fig 10, Overhead and the ablation's
// MLCR/full) share one training run. The memo lives in the Study: two
// studies share nothing, and a fresh Study trains afresh.
type Study struct {
	opts   Options
	mu     sync.Mutex
	models map[modelKey]*trainedModel
}

// modelKey is everything TrainMLCR reads: the workload (family and
// seed), the curriculum, the budget and the resolved MLCR configuration,
// training seed included. DeviationMargin is part of it because training
// applies the gate on exploit steps; Parallelism and Evictor are not,
// because training reads neither. The configuration is resolved at
// Loose 0: Loose follows from the family and seed, so an unset NormMB
// stays 0 here and only an explicit one tells two keys apart.
type modelKey struct {
	family   string
	wSeed    int64
	fracs    string
	episodes int
	cfg      mlcr.Config
}

// trainedModel is one memo entry: the workload, its calibrated Loose
// size and the untuned model, built once however many callers ask.
type trainedModel struct {
	once  sync.Once
	w     workload.Workload
	loose float64
	model *mlcr.Scheduler
}

// NewStudy returns a study over the defaulted options with an empty
// model memo.
func NewStudy(opts Options) *Study {
	return &Study{opts: opts.WithDefaults(), models: map[modelKey]*trainedModel{}}
}

// model returns family's workload at wSeed, its Loose size and a clone
// of the model trained on it with curriculum fracs under o (o.Seed is
// the training seed). The caller owns the clone's margin and workspaces,
// which TuneMargin and Overhead change; the memo's weights, which every
// clone reads, change for nobody.
func (s *Study) model(family string, wSeed int64, fracs []float64, o Options) (workload.Workload, float64, *mlcr.Scheduler) {
	k := modelKey{family, wSeed, fmt.Sprint(fracs), o.Episodes, TrainConfig(0, o)}
	s.mu.Lock()
	e := s.models[k]
	if e == nil {
		e = &trainedModel{}
		s.models[k] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		if family == fstartbench.Overall {
			e.w = fstartbench.BuildOverall(wSeed, fstartbench.OverallOptions{})
		} else {
			e.w = fstartbench.Build(family, wSeed, fstartbench.Options{})
		}
		e.loose = CalibrateLoose(e.w)
		e.model = TrainMLCR(e.w, e.loose, fracs, o)
	})
	return e.w, e.loose, e.model.Clone()
}

// overall is the model of Fig 9, Fig 10, Overhead and the ablation:
// trained on the overall trace at the study's seed with the overall
// curriculum, under o's MLCR configuration.
func (s *Study) overall(o Options) (workload.Workload, float64, *mlcr.Scheduler) {
	return s.model(fstartbench.Overall, s.opts.Seed, fracsOf(OverallPools), o)
}

// repeat is one seed's row of a sweep: its calibrated Loose size and its
// runs indexed by pool, then setup (PolicyNames order).
type repeat struct {
	loose float64
	runs  [][]*platform.RunResult
}

// sweep replays family's trace over Options.Repeats seeds and returns
// the raw matrix, indexed by repeat, then pool, then setup. Repeat r
// builds the trace at Seed+r·wStep and trains at Seed+r·tStep with the
// pools' fractions as curriculum; per pool, the model's margin is tuned
// and every PolicyNames setup (under Options.Evictor) replays the trace.
// Nothing is averaged here. Repeats run concurrently, each owning its
// workload and model clone, and land in repeat order, so any reduction
// is bit-identical to a sequential run.
func (s *Study) sweep(family string, wStep, tStep int64, pools []PoolSize) []repeat {
	o := s.opts
	return runner.Map(o.Repeats, o.runnerOpts(), func(rep int) repeat {
		to := o
		to.Seed = o.Seed + int64(rep)*tStep
		w, loose, m := s.model(family, o.Seed+int64(rep)*wStep, fracsOf(pools), to)
		out := repeat{loose: loose}
		for _, p := range pools {
			poolMB := loose * p.Frac
			TuneMargin(m, w, poolMB, o.Parallelism)
			setups := WithEvictor(append(Baselines(), MLCRSetup(m)), o.Evictor)
			out.runs = append(out.runs, RunAll(setups, w, poolMB, o))
		}
		return out
	})
}
