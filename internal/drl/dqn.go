package drl

import (
	"io"
	"math/rand"

	"mlcr/internal/nn"
)

// AgentConfig parameterizes the DQN agent.
type AgentConfig struct {
	Q QConfig
	// Gamma is the discount factor (default 0.95).
	Gamma float64
	// LR is the Adam learning rate (default 1e-3).
	LR float64
	// BatchSize is the minibatch size per update (default 32).
	BatchSize int
	// ReplayCapacity is the experience-pool size N (default 10000).
	ReplayCapacity int
	// TargetSync is the number of updates between target-network
	// synchronizations (default 100).
	TargetSync int
	// ClipNorm bounds the gradient norm (default 5; <0 disables).
	ClipNorm float64
}

func (c AgentConfig) withDefaults() AgentConfig {
	if c.Gamma == 0 {
		c.Gamma = 0.95
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.ReplayCapacity == 0 {
		c.ReplayCapacity = 10000
	}
	if c.TargetSync == 0 {
		c.TargetSync = 100
	}
	if c.ClipNorm == 0 {
		c.ClipNorm = 5
	}
	return c
}

// TrainStepStats is the telemetry of one gradient update, delivered to
// an Agent's OnTrainStep hook.
type TrainStepStats struct {
	// Update is the 1-based update counter after this step.
	Update int
	// TDError is the mean absolute TD error of the minibatch.
	TDError float64
	// ReplayLen is the experience-pool size at sampling time.
	ReplayLen int
	// Synced reports whether this step synchronized the target network.
	Synced bool
}

// Agent is a DQN learner: an online Q-network, a periodically synced
// target network, an experience-replay pool and the TD(0) update of
// Algorithm 1.
type Agent struct {
	cfg    AgentConfig
	online *QNetwork
	target *QNetwork
	opt    *nn.Adam
	replay *Replay
	rng    *rand.Rand

	updates int
	lastTD  float64

	// Workspace: scratch buffers reused across decisions and updates so
	// the steady-state hot path performs zero heap allocations. They hold
	// no logical state between calls and are skipped by Save/Load and
	// CopyWeightsFrom.
	qvals   *nn.Tensor   // inference output (ForwardInto destination)
	valid   []int        // ε-greedy valid-action scratch
	batch   []Transition // minibatch scratch
	targets []float64    // bootstrap-target scratch
	idxs    []int        // prioritized-replay leaf-index scratch
	grad    *nn.Tensor   // one-hot output-gradient scratch

	// OnTrainStep, when non-nil, observes every gradient update — the
	// training-loop telemetry hook (loss/ε/reward reporting is wired by
	// callers, e.g. cmd/mlcr-train). A nil hook costs one branch.
	OnTrainStep func(TrainStepStats)
}

// NewAgent creates an agent with deterministic initialization from seed.
func NewAgent(cfg AgentConfig, seed int64) *Agent {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	online := NewQNetwork(cfg.Q, rng)
	target := NewQNetwork(cfg.Q, rng)
	nn.CopyParams(target.Params(), online.Params())
	opt := nn.NewAdam(online.Params(), cfg.LR)
	if cfg.ClipNorm > 0 {
		opt.ClipNorm = cfg.ClipNorm
	}
	return &Agent{
		cfg:    cfg,
		online: online,
		target: target,
		opt:    opt,
		replay: NewReplay(cfg.ReplayCapacity),
		rng:    rng,
	}
}

// Config returns the agent configuration (with defaults applied).
func (a *Agent) Config() AgentConfig { return a.cfg }

// Replay exposes the experience pool.
func (a *Agent) Replay() *Replay { return a.replay }

// Online exposes the online Q-network — the weights a QBatcher shares
// across concurrent inference clients. Mutating it while serving is the
// caller's race to avoid.
func (a *Agent) Online() *QNetwork { return a.online }

// Updates returns the number of gradient updates applied.
func (a *Agent) Updates() int { return a.updates }

// LastTDError returns the mean absolute TD error of the latest update,
// a convergence signal for training loops.
func (a *Agent) LastTDError() float64 { return a.lastTD }

// QValues computes the online network's Q-values for a state. The
// returned tensor is an agent-owned scratch buffer, valid until the next
// QValues/SelectAction/TrainStep call; clone it to retain the values.
func (a *Agent) QValues(state *nn.Tensor) *nn.Tensor {
	a.qvals = a.online.ForwardInto(a.qvals, state)
	return a.qvals
}

// SelectAction picks an action ε-greedily among valid (masked-in)
// actions. With probability epsilon a uniformly random valid action is
// chosen; otherwise the valid action with the highest Q-value.
func (a *Agent) SelectAction(s State, epsilon float64) int {
	if epsilon > 0 && a.rng.Float64() < epsilon {
		a.valid = a.valid[:0]
		for i, ok := range s.Mask {
			if ok {
				a.valid = append(a.valid, i)
			}
		}
		return a.valid[a.rng.Intn(len(a.valid))]
	}
	a.qvals = a.online.ForwardInto(a.qvals, s.X)
	act, _ := MaskedArgmax(a.qvals, s.Mask)
	return act
}

// Observe stores a transition in the replay pool.
func (a *Agent) Observe(t Transition) { a.replay.Add(t) }

// TrainStep samples a minibatch and applies one DQN update:
//
//	y_i = r_i                         if done
//	y_i = r_i + γ max_a' Q_target(s', a')  otherwise
//	L   = Σ_i (Q(s_i, a_i) - y_i)² / batch
//
// It returns the mean absolute TD error, or 0 when the replay pool is
// still empty.
func (a *Agent) TrainStep() float64 {
	if a.replay.Len() == 0 {
		return 0
	}
	a.batch = a.replay.SampleInto(a.batch, a.cfg.BatchSize, a.rng)
	batch := a.batch
	targets := a.ensureTargets(len(batch))
	// Pass 1 — bootstrap targets for the whole minibatch. Weights do not
	// change until opt.Step, so batching the next-state passes ahead of
	// the gradient passes produces exactly the per-sample values.
	for i, tr := range batch {
		targets[i] = tr.Reward
		if !tr.Done {
			// Double DQN: the online network selects the next action,
			// the target network evaluates it — reducing the max-
			// operator's overestimation bias.
			oq := a.online.Forward(tr.Next)
			next, _ := MaskedArgmax(oq, tr.NextMask)
			nq := a.target.Forward(tr.Next)
			targets[i] += a.cfg.Gamma * nq.Data[next]
		}
	}
	// Pass 2 — forward/backward per sample through the reused workspaces,
	// accumulating gradients in the original sample order.
	var tdSum float64
	for i, tr := range batch {
		q := a.online.Forward(tr.State)
		td := q.Data[tr.Action] - targets[i]
		tdSum += abs(td)
		// dL/dQ — nonzero only at the taken action; scaled by batch.
		grad := a.ensureGrad(q.Cols)
		grad.Data[tr.Action] = 2 * td / float64(len(batch))
		a.online.Backward(grad)
		grad.Data[tr.Action] = 0
	}
	a.opt.Step()
	a.updates++
	synced := false
	if a.cfg.TargetSync > 0 && a.updates%a.cfg.TargetSync == 0 {
		a.SyncTarget()
		synced = true
	}
	a.lastTD = tdSum / float64(len(batch))
	if a.OnTrainStep != nil {
		a.OnTrainStep(TrainStepStats{
			Update:    a.updates,
			TDError:   a.lastTD,
			ReplayLen: a.replay.Len(),
			Synced:    synced,
		})
	}
	return a.lastTD
}

// CopyWeightsFrom copies the online and target network parameters from
// src into this agent. Both agents must share an identical QConfig.
// Optimizer and replay state are not copied — use this to distribute a
// frozen trained network to fresh agents, one per concurrent run.
func (a *Agent) CopyWeightsFrom(src *Agent) {
	nn.CopyParams(a.online.Params(), src.online.Params())
	nn.CopyParams(a.target.Params(), src.target.Params())
}

// SyncTarget copies online-network weights into the target network.
func (a *Agent) SyncTarget() {
	nn.CopyParams(a.target.Params(), a.online.Params())
}

// Save writes the online network weights.
func (a *Agent) Save(w io.Writer) error { return nn.Save(w, a.online.Params()) }

// Load restores online weights and syncs the target network.
func (a *Agent) Load(r io.Reader) error {
	if err := nn.Load(r, a.online.Params()); err != nil {
		return err
	}
	a.SyncTarget()
	return nil
}

// ensureTargets sizes the bootstrap-target scratch.
func (a *Agent) ensureTargets(n int) []float64 {
	if cap(a.targets) < n {
		a.targets = make([]float64, n)
	}
	a.targets = a.targets[:n]
	return a.targets
}

// ensureGrad returns the zeroed one-hot gradient scratch. Callers must
// reset the entry they set before the next use.
func (a *Agent) ensureGrad(cols int) *nn.Tensor {
	if a.grad == nil || a.grad.Cols != cols {
		a.grad = nn.NewTensor(1, cols)
	}
	return a.grad
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
