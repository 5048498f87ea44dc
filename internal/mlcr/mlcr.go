// Package mlcr assembles the paper's contribution: the Multi-Level
// Container Reuse scheduler, a DQN agent (Section IV-B) deciding for
// every invocation whether to reuse one of the candidate warm containers
// (found by multi-level matching) or to cold-start. Train runs
// Algorithm 1 offline; the Scheduler it leaves behind serves the frozen
// greedy policy and holds nothing but the trained Q-network.
//
// Served weights are immutable. A Scheduler and every Clone of it read
// one copy of the weights, each through workspaces of its own, so clones
// serve on separate goroutines; the two writers, Train and Load, write
// weights that they alone hold (Train a copy it takes first, Load a
// network it builds).
package mlcr

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"mlcr/internal/drl"
	"mlcr/internal/evict"
	"mlcr/internal/obs/perf"
	"mlcr/internal/platform"
	"mlcr/internal/pool"
	"mlcr/internal/workload"
)

// Config parameterizes the MLCR scheduler and its DQN.
type Config struct {
	// Slots is the number of candidate container slots n; the action
	// space is n+1 (default 4).
	Slots int
	// Dim, Heads, Hidden size the Q-network (defaults 24/2/48, picked
	// by a sweep on the overall workload to balance CPU training time
	// against solution quality; the paper's reference GPU configuration
	// uses 512/2).
	Dim, Heads, Hidden int
	// Gamma is the discount factor (default 0.9).
	Gamma float64
	// LR is the learning rate (default 1e-3).
	LR float64
	// BatchSize is the DQN minibatch (default 32).
	BatchSize int
	// TargetSync is updates between target syncs (default 200).
	TargetSync int
	// TrainEvery is environment steps per gradient update during
	// training (default 2).
	TrainEvery int
	// WarmupObservations delays training until the replay pool holds
	// this many transitions (default 64).
	WarmupObservations int
	// Exploration decays linearly from epsilonStart to epsilonEnd over
	// EpsilonDecayEpisodes episodes (default 20).
	EpsilonDecayEpisodes int
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
	// of to noise (default 0.1; negative disables).
	DeviationMargin float64
	// NormMB and NormTime feed the featurizer's normalizers.
	NormMB   float64
	NormTime time.Duration
	// Seed drives all stochastic parts (weights, exploration).
	Seed int64
}

// WithDefaults fills unset fields: the one set of MLCR defaults.
func (c Config) WithDefaults() Config {
	if c.Slots == 0 {
		c.Slots = 4
	}
	if c.Dim == 0 {
		c.Dim = 24
	}
	if c.Heads == 0 {
		c.Heads = 2
	}
	if c.Hidden == 0 {
		c.Hidden = 48
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
	if c.TargetSync == 0 {
		c.TargetSync = 200
	}
	if c.TrainEvery == 0 {
		c.TrainEvery = 2
	}
	if c.WarmupObservations == 0 {
		c.WarmupObservations = 64
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
		c.DeviationMargin = 0.1
	}
	return c
}

// maxSize bounds each network size of a loaded Config, and maxWeights
// the Q-network it asks for (the paper's 512-wide reference network fits).
const maxSize, maxWeights = 1 << 12, 1 << 22

// check refuses a Config that New cannot build, that training would
// divide by, or that makes the featurizer emit non-finite features. Load
// runs it on the file's config before allocating anything.
func (c Config) check() error {
	for _, n := range []int{c.Slots, c.Dim, c.Heads, c.Hidden} {
		if n <= 0 || n > maxSize {
			return fmt.Errorf("mlcr: config network sizes must lie in [1, %d]: %+v", maxSize, c)
		}
	}
	if c.BatchSize <= 0 || c.TargetSync <= 0 || c.TrainEvery <= 0 || c.EpsilonDecayEpisodes <= 0 {
		return fmt.Errorf("mlcr: config training counts must be positive: %+v", c)
	}
	if c.Dim%c.Heads != 0 {
		return fmt.Errorf("mlcr: config Dim %d not divisible by %d heads", c.Dim, c.Heads)
	}
	if n := 8*c.Dim*c.Dim + (c.Slots+2)*c.Dim*c.Hidden; n > maxWeights {
		return fmt.Errorf("mlcr: config asks for about %d weights, more than %d", n, maxWeights)
	}
	if !(c.NormMB >= 0) || math.IsInf(c.NormMB, 1) || c.NormTime < 0 || math.IsNaN(c.DeviationMargin) {
		return fmt.Errorf("mlcr: config norms must be finite and non-negative, and the margin a number: NormMB %v, NormTime %v, DeviationMargin %v",
			c.NormMB, c.NormTime, c.DeviationMargin)
	}
	return nil
}

// Scheduler is the MLCR container scheduler as it is served: the
// featurizer, a Q-network over frozen weights that its clones share and
// the deviation-margin gate. It implements platform.Scheduler. It holds
// no training state: Train builds that for the length of one call.
type Scheduler struct {
	cfg   Config
	feat  *drl.Featurizer
	agent *drl.Agent
	// prof, when non-nil, times the Q-network forward passes of this
	// run (set via SetProfiler by the platform's observability wiring;
	// per-run like the rest of the scheduler's mutable state).
	prof *perf.Profiler
}

// SetProfiler attaches the run's phase profiler so Schedule can time
// its Q-network forward passes (PhaseNNForward). The platform calls it
// through the perf-aware scheduler interface; nil detaches.
func (s *Scheduler) SetProfiler(p *perf.Profiler) { s.prof = p }

// SetBatcher does nothing: a clone runs its own forward passes. It
// remains only because bench/ names it; leaves with ROADMAP item 26's
// benchmark change.
func (*Scheduler) SetBatcher(*drl.QBatcher) {}

// New creates an MLCR scheduler with randomly initialized weights; call
// Train before using it for real scheduling, or build a trained one
// with Load.
func New(cfg Config) *Scheduler {
	cfg = cfg.WithDefaults()
	return build(cfg, drl.NewAgent(qconfig(cfg), cfg.Seed))
}

// qconfig is the Q-network shape a resolved configuration asks for.
func qconfig(cfg Config) drl.QConfig {
	feat := featurizer(cfg)
	return drl.QConfig{
		Tokens:  feat.Tokens(),
		Width:   feat.Width(),
		Actions: feat.Actions(),
		Dim:     cfg.Dim,
		Heads:   cfg.Heads,
		Hidden:  cfg.Hidden,
	}
}

// featurizer returns a fresh featurizer for a resolved configuration.
func featurizer(cfg Config) *drl.Featurizer {
	return &drl.Featurizer{Slots: cfg.Slots, NormMB: cfg.NormMB, NormTime: cfg.NormTime}
}

// build creates the scheduler for a resolved configuration around agent.
func build(cfg Config, agent *drl.Agent) *Scheduler {
	return &Scheduler{cfg: cfg, feat: featurizer(cfg), agent: agent}
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

// Schedule implements platform.Scheduler.
func (s *Scheduler) Schedule(env platform.Env, inv *workload.Invocation) int {
	state := s.feat.Build(env, inv)
	return s.containerOf(state, s.decide(state))
}

// decide is the served policy: the valid action with the highest
// Q-value, unless it beats the greedy action (slot 0, the best-ranked
// candidate) by less than the deviation margin.
func (s *Scheduler) decide(state drl.State) int {
	if !state.Mask[0] {
		// Forced decision: no candidate survived the mask, so the argmax
		// over valid actions can only be the cold start and the margin
		// gate has nothing to gate. No forward pass is run.
		return s.cfg.Slots
	}
	if math.IsInf(s.cfg.DeviationMargin, 1) {
		// No finite Q-value beats slot 0's by +Inf, so for finite
		// Q-values the gate returns slot 0 whatever the network says
		// (nn.Load refuses non-finite weights). No forward pass is run.
		return 0
	}
	sp := s.prof.Start(perf.PhaseNNForward)
	q := s.agent.QValues(state.X)
	sp.End()
	best, bestV := drl.MaskedArgmax(q, state.Mask)
	if s.cfg.DeviationMargin >= 0 && best != 0 && bestV < q.Data[0]+s.cfg.DeviationMargin {
		return 0
	}
	return best
}

// containerOf maps an action to Schedule's answer: the candidate's pool
// ID, or ColdStart.
func (s *Scheduler) containerOf(state drl.State, action int) int {
	if action == s.cfg.Slots {
		return platform.ColdStart
	}
	id := state.Candidates[action]
	if id < 0 {
		panic(fmt.Sprintf("mlcr: selected empty slot %d (mask bug)", action))
	}
	return id
}

// Clone returns a scheduler over the same frozen weights, with the same
// configuration (including the current deviation margin) and fresh
// workspaces; it carries no profiler. Inference through a
// scheduler mutates its workspaces — the featurizer's and the network's
// forward-pass buffers — so a trained model evaluated by concurrent runs
// is cloned once per run, and the clones read one copy of the weights.
// A clone's decisions are identical to the original's, and training
// either one later leaves the other's weights alone (Train).
func (s *Scheduler) Clone() *Scheduler { return build(s.cfg, s.agent.Clone()) }

// SetDeviationMargin adjusts the inference-time confidence gate. The
// experiment harness selects the margin per pool size in-sample, on
// the training workload (a larger margin gates more learned deviations;
// +Inf degrades the policy to its cost-aware greedy fallback).
func (s *Scheduler) SetDeviationMargin(m float64) { s.cfg.DeviationMargin = m }

// DeviationMargin returns the current confidence-gate margin.
func (s *Scheduler) DeviationMargin() float64 { return s.cfg.DeviationMargin }

// OnResult implements platform.Scheduler. A served policy learns nothing
// from outcomes; Train's trainer records them as rewards.
func (s *Scheduler) OnResult(platform.Env, *workload.Invocation, platform.Result) {}

// Save writes the model: the resolved Config, then the Q-network
// weights. The file describes itself, so Load needs nothing else.
func (s *Scheduler) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(s.cfg); err != nil {
		return err
	}
	return s.agent.Save(w)
}

// LoadFile is Load of the model file at path (mlcr-train's -out).
func LoadFile(path string) (*Scheduler, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := Load(f)
	_ = f.Close() // read-only: the model is loaded or refused already
	return s, err
}

// Load builds a scheduler from a model written by Save. The file's own
// Config sizes the network and sets the featurizer norms and the
// deviation margin, so a served model sees the state encoding it was
// trained on. The Config is checked before anything is allocated, and
// the weights as nn.Load checks them, into a network no other scheduler
// holds.
func Load(r io.Reader) (*Scheduler, error) {
	// Both gob streams read through one buffered reader: gob reads a
	// ByteReader message by message, so the config decoder leaves the
	// weights unread.
	br := bufio.NewReader(r)
	var cfg Config
	if err := gob.NewDecoder(br).Decode(&cfg); err != nil {
		return nil, fmt.Errorf("mlcr: decode config: %w", err)
	}
	if err := cfg.check(); err != nil {
		return nil, err
	}
	agent, err := drl.LoadAgent(qconfig(cfg), br)
	if err != nil {
		return nil, err
	}
	return build(cfg, agent), nil
}
