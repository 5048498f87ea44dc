package mlcr

import (
	"math/rand"
	"time"

	"mlcr/internal/drl"
	"mlcr/internal/nn"
	"mlcr/internal/platform"
	"mlcr/internal/workload"
)

// replayCapacity is the experience-pool size, and exploration decays
// from epsilonStart in the first training episode to epsilonEnd.
const (
	replayCapacity = 8192
	epsilonStart   = 1.0
	epsilonEnd     = 0.05
)

// EpisodeStats summarizes one training episode.
type EpisodeStats struct {
	Episode      int
	TotalStartup time.Duration
	ColdStarts   int
	Epsilon      float64
	TDError      float64
}

// TrainOptions parameterize offline training (Algorithm 1).
type TrainOptions struct {
	// Episodes is the number of training iterations over the workload.
	Episodes int
	// PoolCapacityMB is the warm-pool size of the training environment.
	PoolCapacityMB float64
	// PoolForEpisode, when non-nil, overrides PoolCapacityMB per
	// episode — a pool-size curriculum that trains one model robust
	// across the paper's Tight/Moderate/Loose settings.
	PoolForEpisode func(episode int) float64
	// Workload generates the episode's invocation stream; it is called
	// once per episode (return the same workload for fixed-trace
	// training, or vary it for generalization).
	Workload func(episode int) workload.Workload
	// OnEpisode, when non-nil, observes per-episode stats.
	OnEpisode func(EpisodeStats)
	// OnTrainStep, when non-nil, observes every gradient update.
	OnTrainStep func(drl.TrainStepStats)
}

// Train runs offline DQN training: each episode replays the workload
// through a fresh platform environment while a trainer explores, stores
// experiences and updates a copy of the scheduler's weights that only it
// holds; when it returns, the scheduler serves the trained copy. The
// trainer — that copy, target network, optimizer, replay pool,
// exploration schedule — exists only for this call: every Train starts
// from an empty replay and ε = epsilonStart, and what is left afterwards
// is the trained weights and the update count. Clones taken before Train
// keep the weights they were taken over, and training a clone leaves the
// scheduler it came from as it was.
func (s *Scheduler) Train(opts TrainOptions) []EpisodeStats {
	if opts.Episodes <= 0 {
		panic("mlcr: Episodes must be positive")
	}
	if opts.Workload == nil {
		panic("mlcr: Workload generator required")
	}
	t := newTrainer(s)
	t.learner.OnTrainStep = opts.OnTrainStep
	stats := make([]EpisodeStats, 0, opts.Episodes)
	for ep := 0; ep < opts.Episodes; ep++ {
		w := opts.Workload(ep)
		poolMB := opts.PoolCapacityMB
		if opts.PoolForEpisode != nil {
			poolMB = opts.PoolForEpisode(ep)
		}
		res := platform.New(platform.Config{PoolCapacityMB: poolMB, Evictor: s.Evictor()}, t).Run(w)
		t.endEpisode()
		st := EpisodeStats{
			Episode:      ep,
			TotalStartup: res.Metrics.TotalStartup(),
			ColdStarts:   res.Metrics.ColdStarts(),
			Epsilon:      t.epsilon,
			TDError:      t.learner.LastTDError(),
		}
		stats = append(stats, st)
		if opts.OnEpisode != nil {
			opts.OnEpisode(st)
		}
	}
	// Backward passes left gradient workspaces and weight transposes in
	// the learner's layers; a clone carries the weights alone. The
	// gradient buffers sit on the shared parameters, all zero after the
	// last update, so the served model drops them.
	s.agent = t.learner.Agent().Clone()
	for _, p := range s.agent.Online().Params() {
		p.DropGrad()
	}
	return stats
}

// pending holds the half-built transition awaiting the next state: a
// clone of the state tensor (the featurizer's is scratch, overwritten by
// the next Build), the action, its realized startup and the greedy
// estimate. x is nil before an episode's first decision.
type pending struct {
	x         *nn.Tensor
	action    int
	startup   time.Duration
	greedyEst time.Duration
}

// trainer is the platform.Scheduler Train runs: ε-greedy over the
// served decision of s, a private scheduler over the learner's weights,
// feeding every transition to the learner. Its random stream, seeded
// Seed+1, draws the ε test and the greedy-bias test; the learner's,
// seeded Seed, the exploration pick.
type trainer struct {
	s       *Scheduler
	learner *drl.Learner
	rng     *rand.Rand
	epsilon float64
	episode int
	steps   int
	pend    pending
}

// newTrainer starts training a copy of s's weights: a fresh learner,
// a scheduler over the learner's agent and ε = epsilonStart.
func newTrainer(s *Scheduler) *trainer {
	learner := drl.NewLearner(s.agent, drl.LearnerConfig{
		Gamma:          s.cfg.Gamma,
		LR:             s.cfg.LR,
		BatchSize:      s.cfg.BatchSize,
		ReplayCapacity: replayCapacity,
		TargetSync:     s.cfg.TargetSync,
	}, s.cfg.Seed)
	return &trainer{
		s:       build(s.cfg, learner.Agent()),
		learner: learner,
		rng:     rand.New(rand.NewSource(s.cfg.Seed + 1)),
		epsilon: epsilonStart,
	}
}

// Name implements platform.Scheduler.
func (t *trainer) Name() string { return "MLCR" }

// Schedule implements platform.Scheduler.
func (t *trainer) Schedule(env platform.Env, inv *workload.Invocation) int {
	s := t.s
	state := s.feat.Build(env, inv)
	// The transition tensors outlive this decision in the replay pool,
	// so the scratch state is cloned once; the clone is both this step's
	// Next and the next step's State.
	next := state.X.Clone()
	if t.pend.x != nil {
		t.learner.Observe(drl.Transition{
			State:    t.pend.x,
			Action:   t.pend.action,
			Reward:   t.shapedReward(state.GreedyEst),
			Next:     next,
			NextMask: append([]bool(nil), state.Mask...),
		})
		t.steps++
		if t.steps%s.cfg.TrainEvery == 0 && t.learner.ReplayLen() >= s.cfg.WarmupObservations {
			t.learner.TrainStep()
		}
	}
	var action int
	switch {
	case t.rng.Float64() >= t.epsilon:
		action = s.decide(state)
	// Exploration step: mostly follow the strong greedy heuristic (the
	// best-ranked slot, or the cold start when no slot matches),
	// sometimes a uniformly random valid action.
	case t.rng.Float64() >= s.cfg.GreedyExploreBias:
		action = t.learner.Explore(state.Mask)
	case state.Mask[0]:
		action = 0
	default:
		action = s.cfg.Slots
	}
	t.pend = pending{x: next, action: action, greedyEst: state.GreedyEst}
	return s.containerOf(state, action)
}

// OnResult implements platform.Scheduler: it records the realized
// startup latency, the basis of the reward r_t = -startup (Section IV-B
// "Reward").
func (t *trainer) OnResult(_ platform.Env, _ *workload.Invocation, res platform.Result) {
	t.pend.startup = res.Startup.Total()
}

// endEpisode flushes the final transition as terminal and decays the
// exploration rate.
func (t *trainer) endEpisode() {
	if t.pend.x != nil {
		t.learner.Observe(drl.Transition{
			State:  t.pend.x,
			Action: t.pend.action,
			Reward: t.shapedReward(0), // terminal potential is zero
			Done:   true,
		})
	}
	t.pend = pending{}
	t.episode++
	frac := min(float64(t.episode)/float64(t.s.cfg.EpsilonDecayEpisodes), 1)
	t.epsilon = epsilonStart + (epsilonEnd-epsilonStart)*frac
}

// shapedReward computes the pending step's reward. With the default
// ShapingWeight of 0 it is the paper's r = −startup (scaled). A positive
// weight adds potential-based shaping (Ng, Harada & Russell) with
// potential Φ(s) = −greedyEst(s):
//
//	r' = r + w·(γ·Φ(s') − Φ(s))
//
// which provably preserves the optimal policy for w ∈ [0, 1] while
// re-centering rewards around the greedy baseline. nextGreedyEst is zero
// for terminal transitions.
func (t *trainer) shapedReward(nextGreedyEst time.Duration) float64 {
	cfg := t.s.cfg
	r := -t.pend.startup.Seconds()
	if w := cfg.ShapingWeight; w != 0 {
		phiS := -t.pend.greedyEst.Seconds()
		phiNext := -nextGreedyEst.Seconds()
		r += w * (cfg.Gamma*phiNext - phiS)
	}
	return r / cfg.RewardScale
}
