// Package mlcr assembles the paper's contribution: the Multi-Level
// Container Reuse scheduler, a DQN agent (Section IV-B) deciding for
// every invocation whether to reuse one of the candidate warm containers
// (found by multi-level matching) or to cold-start, trained offline with
// Algorithm 1 and usable for online inference and fine-tuning.
package mlcr

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"mlcr/internal/drl"
	"mlcr/internal/evict"
	"mlcr/internal/nn"
	"mlcr/internal/obs/perf"
	"mlcr/internal/platform"
	"mlcr/internal/pool"
	"mlcr/internal/workload"
)

// Config parameterizes the MLCR scheduler and its DQN.
type Config struct {
	// Slots is the number of candidate container slots n; the action
	// space is n+1 (default 8).
	Slots int
	// Dim, Heads, Hidden size the Q-network (defaults 32/2/64; the
	// paper's reference GPU configuration uses 512/2).
	Dim, Heads, Hidden int
	// Gamma is the discount factor (default 0.9).
	Gamma float64
	// LR is the learning rate (default 1e-3).
	LR float64
	// BatchSize is the DQN minibatch (default 32).
	BatchSize int
	// ReplayCapacity is the experience-pool size (default 8192).
	ReplayCapacity int
	// TargetSync is updates between target syncs (default 200).
	TargetSync int
	// TrainEvery is environment steps per gradient update during
	// training (default 2).
	TrainEvery int
	// WarmupObservations delays training until the replay pool holds
	// this many transitions (default 64).
	WarmupObservations int
	// EpsilonStart/EpsilonEnd bound the linear exploration decay over
	// EpsilonDecayEpisodes episodes (defaults 1.0 / 0.05 / 20).
	EpsilonStart, EpsilonEnd float64
	EpsilonDecayEpisodes     int
	// RewardScale divides the negative startup latency in seconds
	// (default 10).
	RewardScale float64
	// GreedyExploreBias is the fraction of exploration steps that take
	// the greedy multi-level-match action (slot 0) instead of a
	// uniformly random valid action (default 0.5). Biasing exploration
	// toward the strong greedy heuristic keeps early episodes in the
	// useful region of the state space, the same role the paper's mask
	// plays for "purposeless exploration".
	GreedyExploreBias float64
	// ShapingWeight scales an optional potential-based reward shaping
	// term with potential Φ(s) = −greedyEst(s) (Ng et al.; preserves
	// the optimal policy). Default 0: the paper's raw reward
	// r = −startup. Exposed for the ablation benchmarks.
	ShapingWeight float64
	// DeviationMargin is the inference-time confidence gate: the agent
	// deviates from the greedy action only when the chosen action's
	// Q-value exceeds the greedy action's by this margin (in reward
	// units). It extends the paper's mask — filtering decisions the
	// network itself is not confident about — and makes an
	// under-trained model degrade gracefully to Greedy-Match instead
	// of to noise (default 0.05; negative disables).
	DeviationMargin float64
	// NormMB and NormTime feed the featurizer's normalizers.
	NormMB   float64
	NormTime time.Duration
	// Seed drives all stochastic parts (weights, exploration).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Slots == 0 {
		c.Slots = 8
	}
	if c.Dim == 0 {
		c.Dim = 32
	}
	if c.Heads == 0 {
		c.Heads = 2
	}
	if c.Hidden == 0 {
		c.Hidden = 64
	}
	if c.Gamma == 0 {
		c.Gamma = 0.9
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.ReplayCapacity == 0 {
		c.ReplayCapacity = 8192
	}
	if c.TargetSync == 0 {
		c.TargetSync = 200
	}
	if c.TrainEvery == 0 {
		c.TrainEvery = 2
	}
	if c.WarmupObservations == 0 {
		c.WarmupObservations = 64
	}
	if c.EpsilonStart == 0 {
		c.EpsilonStart = 1
	}
	if c.EpsilonEnd == 0 {
		c.EpsilonEnd = 0.05
	}
	if c.EpsilonDecayEpisodes == 0 {
		c.EpsilonDecayEpisodes = 20
	}
	if c.RewardScale == 0 {
		c.RewardScale = 10
	}
	if c.GreedyExploreBias == 0 {
		c.GreedyExploreBias = 0.5
	}
	if c.DeviationMargin == 0 {
		c.DeviationMargin = 0.05
	}
	return c
}

// pending holds the half-built transition awaiting the next state. The
// featurizer's State buffers are scratch (overwritten by the next Build),
// so what survives across steps is copied out: the greedy estimate by
// value and — in training mode only, where the transition will enter the
// long-lived replay pool — a clone of the state tensor. Inference stores
// no tensor at all and stays allocation-free.
type pending struct {
	x         *nn.Tensor // cloned state tensor (nil in inference mode)
	action    int
	startup   time.Duration
	greedyEst time.Duration
	have      bool
}

// Scheduler is the MLCR container scheduler. It implements
// platform.Scheduler for both training (ε-greedy, learning) and inference
// (greedy) modes.
type Scheduler struct {
	cfg      Config
	feat     *drl.Featurizer
	agent    *drl.Agent
	rng      *rand.Rand
	training bool
	epsilon  float64
	episode  int
	steps    int
	pend     pending
	// prof, when non-nil, times the Q-network forward passes of this
	// run (set via SetProfiler by the platform's observability wiring;
	// per-run like the rest of the scheduler's mutable state).
	prof *perf.Profiler
	// batcher, when non-nil, routes greedy-inference forward passes
	// through a shared QBatcher instead of this scheduler's own agent —
	// the concurrent gateway's amortization seam (SetBatcher). btok/bq
	// are this scheduler's reusable token and result buffer.
	batcher *drl.QBatcher
	btok    *drl.BatchToken
	bq      *nn.Tensor
}

// SetProfiler attaches the run's phase profiler so Schedule can time
// its Q-network forward passes (PhaseNNForward). The platform calls it
// through the perf-aware scheduler interface; nil detaches.
func (s *Scheduler) SetProfiler(p *perf.Profiler) { s.prof = p }

// SetBatcher routes this scheduler's greedy-inference forward passes
// through a shared QBatcher — typically wrapping the master model's
// online network (Agent().Online()) while per-shard clones carry the
// same weights, so batched Q-values and hence decisions are
// bit-identical to each clone's own sequential inference. Exploration
// and training paths keep using the scheduler's private agent; attach
// a batcher only to inference-mode schedulers. Nil detaches.
func (s *Scheduler) SetBatcher(b *drl.QBatcher) {
	s.batcher = b
	if b != nil && s.btok == nil {
		s.btok = drl.NewBatchToken()
	}
}

// New creates an MLCR scheduler in inference mode with randomly
// initialized weights; call Train (or Load) before using it for real
// scheduling.
func New(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	feat := &drl.Featurizer{Slots: cfg.Slots, NormMB: cfg.NormMB, NormTime: cfg.NormTime}
	agent := drl.NewAgent(drl.AgentConfig{
		Q: drl.QConfig{
			Tokens:  feat.Tokens(),
			Width:   feat.Width(),
			Actions: feat.Actions(),
			Dim:     cfg.Dim,
			Heads:   cfg.Heads,
			Hidden:  cfg.Hidden,
		},
		Gamma:          cfg.Gamma,
		LR:             cfg.LR,
		BatchSize:      cfg.BatchSize,
		ReplayCapacity: cfg.ReplayCapacity,
		TargetSync:     cfg.TargetSync,
	}, cfg.Seed)
	return &Scheduler{
		cfg: cfg, feat: feat, agent: agent,
		rng:     rand.New(rand.NewSource(cfg.Seed + 1)),
		epsilon: cfg.EpsilonStart,
	}
}

// Name implements platform.Scheduler.
func (s *Scheduler) Name() string { return "MLCR" }

// Evictor returns the pool eviction policy MLCR is paired with (LRU, as
// in the paper).
func (s *Scheduler) Evictor() pool.Evictor { return evict.NewLRU() }

// Agent exposes the underlying DQN (for inspection and benchmarks).
func (s *Scheduler) Agent() *drl.Agent { return s.agent }

// Config returns the configuration with defaults applied.
func (s *Scheduler) Config() Config { return s.cfg }

// SetTraining toggles learning mode. In training mode actions are
// ε-greedy and every transition feeds the replay pool; in inference mode
// the greedy policy runs with no learning (use BeginEpisode/EndEpisode
// around training runs).
func (s *Scheduler) SetTraining(on bool) { s.training = on }

// Epsilon returns the current exploration rate.
func (s *Scheduler) Epsilon() float64 { return s.epsilon }

// BeginEpisode resets per-episode state before a training run.
func (s *Scheduler) BeginEpisode() {
	s.pend = pending{}
}

// EndEpisode flushes the final transition as terminal and decays the
// exploration rate.
func (s *Scheduler) EndEpisode() {
	if s.training && s.pend.have && s.pend.x != nil {
		s.agent.Observe(drl.Transition{
			State:  s.pend.x,
			Action: s.pend.action,
			Reward: s.shapedReward(0), // terminal potential is zero
			Done:   true,
		})
		s.pend = pending{}
	}
	s.episode++
	span := float64(s.cfg.EpsilonDecayEpisodes)
	frac := float64(s.episode) / span
	if frac > 1 {
		frac = 1
	}
	s.epsilon = s.cfg.EpsilonStart + (s.cfg.EpsilonEnd-s.cfg.EpsilonStart)*frac
}

// Schedule implements platform.Scheduler.
func (s *Scheduler) Schedule(env platform.Env, inv *workload.Invocation) int {
	state := s.feat.Build(env, inv)

	// In training mode the transition tensors outlive this decision in
	// the replay pool, so the scratch state is cloned once; the clone is
	// both this step's Next and the next step's State (the same sharing
	// the per-call featurizer allocation used to provide). Inference
	// clones nothing.
	var next *nn.Tensor
	if s.training {
		next = state.X.Clone()
		if s.pend.have && s.pend.x != nil {
			s.agent.Observe(drl.Transition{
				State:    s.pend.x,
				Action:   s.pend.action,
				Reward:   s.shapedReward(state.GreedyEst),
				Next:     next,
				NextMask: append([]bool(nil), state.Mask...), //mlcr:allow hotalloc training-only transition capture (s.training branch); serving never enters
				Done:     false,
			})
			s.steps++
			if s.steps%s.cfg.TrainEvery == 0 && s.agent.Replay().Len() >= s.cfg.WarmupObservations {
				s.agent.TrainStep()
			}
		}
	}

	greedyAction := s.cfg.Slots
	if state.Mask[0] {
		greedyAction = 0
	}
	var action int
	switch {
	case s.training && s.rng.Float64() < s.epsilon:
		// Exploration step: mostly follow the strong greedy heuristic
		// (the best-ranked slot, or cold start when no slot matches),
		// sometimes a uniformly random valid action.
		if s.rng.Float64() < s.cfg.GreedyExploreBias {
			action = greedyAction
		} else {
			sp := s.prof.Start(perf.PhaseNNForward)
			action = s.agent.SelectAction(state, 1)
			sp.End()
		}
	case !state.Mask[0]:
		// Forced decision: no candidate survived the mask, so the argmax
		// over valid actions can only be the cold start and the margin
		// gate has nothing to gate. No forward pass is run.
		action = s.cfg.Slots
	default:
		sp := s.prof.Start(perf.PhaseNNForward)
		var q *nn.Tensor
		if s.batcher != nil {
			s.bq = s.batcher.ForwardInto(s.btok, s.bq, state.X)
			q = s.bq
		} else {
			q = s.agent.QValues(state.X)
		}
		sp.End()
		best, bestV := drl.MaskedArgmax(q, state.Mask)
		action = best
		if s.cfg.DeviationMargin >= 0 && best != greedyAction &&
			bestV < q.Data[greedyAction]+s.cfg.DeviationMargin {
			action = greedyAction
		}
	}
	s.pend = pending{x: next, action: action, greedyEst: state.GreedyEst, have: true}

	if action == s.cfg.Slots {
		return platform.ColdStart
	}
	id := state.Candidates[action]
	if id < 0 {
		panic(fmt.Sprintf("mlcr: selected empty slot %d (mask bug)", action))
	}
	return id
}

// Clone returns an independent scheduler with the same configuration
// (including the current deviation margin) and a copy of the trained
// network weights. Inference through a scheduler mutates it — pending
// transitions and the network's forward-pass activation caches — so a
// trained model evaluated by concurrent runs must be cloned once per
// run. A clone's inference decisions are identical to the original's;
// replay/optimizer state is not carried over, so clones are for
// inference (or fresh fine-tuning), not for resuming training.
func (s *Scheduler) Clone() *Scheduler {
	c := New(s.cfg)
	c.agent.CopyWeightsFrom(s.agent)
	c.epsilon = s.epsilon
	c.episode = s.episode
	return c
}

// SetDeviationMargin adjusts the inference-time confidence gate. The
// experiment harness selects the margin per pool size by validation on
// the training workload (a larger margin gates more learned deviations;
// +Inf degrades the policy to its cost-aware greedy fallback).
func (s *Scheduler) SetDeviationMargin(m float64) { s.cfg.DeviationMargin = m }

// DeviationMargin returns the current confidence-gate margin.
func (s *Scheduler) DeviationMargin() float64 { return s.cfg.DeviationMargin }

// OnResult implements platform.Scheduler: it records the realized
// startup latency, the basis of the reward r_t = -startup (Section IV-B
// "Reward").
func (s *Scheduler) OnResult(_ platform.Env, _ *workload.Invocation, res platform.Result) {
	if !s.pend.have {
		return
	}
	s.pend.startup = res.Startup.Total()
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
func (s *Scheduler) shapedReward(nextGreedyEst time.Duration) float64 {
	r := -s.pend.startup.Seconds()
	if w := s.cfg.ShapingWeight; w != 0 {
		phiS := -s.pend.greedyEst.Seconds()
		phiNext := -nextGreedyEst.Seconds()
		r += w * (s.cfg.Gamma*phiNext - phiS)
	}
	return r / s.cfg.RewardScale
}

// Save writes the trained Q-network weights.
func (s *Scheduler) Save(w io.Writer) error { return s.agent.Save(w) }

// Load restores Q-network weights trained with an identical Config.
func (s *Scheduler) Load(r io.Reader) error { return s.agent.Load(r) }

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
}

// Train runs offline DQN training: each episode replays the workload
// through a fresh platform environment while the agent explores, stores
// experiences and updates its network. The scheduler is left in inference
// mode, ready for evaluation.
func (s *Scheduler) Train(opts TrainOptions) []EpisodeStats {
	if opts.Episodes <= 0 {
		panic("mlcr: Episodes must be positive")
	}
	if opts.Workload == nil {
		panic("mlcr: Workload generator required")
	}
	stats := make([]EpisodeStats, 0, opts.Episodes)
	s.SetTraining(true)
	for ep := 0; ep < opts.Episodes; ep++ {
		s.BeginEpisode()
		w := opts.Workload(ep)
		poolMB := opts.PoolCapacityMB
		if opts.PoolForEpisode != nil {
			poolMB = opts.PoolForEpisode(ep)
		}
		p := platform.New(platform.Config{PoolCapacityMB: poolMB, Evictor: s.Evictor()}, s)
		res := p.Run(w)
		s.EndEpisode()
		st := EpisodeStats{
			Episode:      ep,
			TotalStartup: res.Metrics.TotalStartup(),
			ColdStarts:   res.Metrics.ColdStarts(),
			Epsilon:      s.epsilon,
			TDError:      s.agent.LastTDError(),
		}
		stats = append(stats, st)
		if opts.OnEpisode != nil {
			opts.OnEpisode(st)
		}
	}
	s.SetTraining(false)
	return stats
}
