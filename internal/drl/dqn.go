package drl

import (
	"io"
	"math/rand"

	"mlcr/internal/nn"
)

// LearnerConfig parameterizes the DQN update of Algorithm 1. Every field
// must be set: the caller (mlcr.Config) owns the defaults.
type LearnerConfig struct {
	// Gamma is the discount factor.
	Gamma float64
	// LR is the Adam learning rate.
	LR float64
	// BatchSize is the minibatch size per update.
	BatchSize int
	// ReplayCapacity is the experience-pool size N.
	ReplayCapacity int
	// TargetSync is the number of updates between target-network
	// synchronizations.
	TargetSync int
}

// clipNorm bounds the global gradient norm of every update.
const clipNorm = 5

// TrainStepStats is the telemetry of one gradient update, delivered to
// a Learner's OnTrainStep hook.
type TrainStepStats struct {
	// Update is the 1-based update counter after this step.
	Update int
	// TDError is the mean absolute TD error of the minibatch.
	TDError float64
	// ReplayLen is the experience-pool size at sampling time.
	ReplayLen int
	// Synced reports whether this step synchronized the target network.
	Synced bool
	// TargetsCached counts the minibatch's bootstrap targets whose
	// target-network Q-vector came from the cache rather than a forward
	// pass.
	TargetsCached int
}

// Agent is a served DQN policy: the online Q-network, its inference
// scratch and the number of updates that trained it. Training state
// lives in a Learner, which exists only while one trains the agent.
type Agent struct {
	online  *QNetwork
	qvals   *nn.Tensor // QValues destination, reused across decisions
	updates int
}

// NewAgent creates an agent whose online network is initialized
// deterministically from seed.
func NewAgent(q QConfig, seed int64) *Agent {
	return &Agent{online: NewQNetwork(q, rand.New(rand.NewSource(seed)))}
}

// Online exposes the online Q-network — the weights a QBatcher shares
// across concurrent inference clients. Mutating it while serving is the
// caller's race to avoid.
func (a *Agent) Online() *QNetwork { return a.online }

// Updates returns the number of gradient updates applied.
func (a *Agent) Updates() int { return a.updates }

// QValues computes the online network's Q-values for a state. The
// returned tensor is an agent-owned scratch buffer, valid until the next
// QValues call; clone it to retain the values.
func (a *Agent) QValues(state *nn.Tensor) *nn.Tensor {
	a.qvals = a.online.ForwardInto(a.qvals, state)
	return a.qvals
}

// Clone returns an agent with a copy of the online parameters and the
// update count. The copy has fresh workspaces: no forward or backward
// scratch of a is carried over.
func (a *Agent) Clone() *Agent {
	c := NewAgent(a.online.Config(), 0) // weights overwritten below
	nn.CopyParams(c.online.Params(), a.online.Params())
	c.updates = a.updates
	return c
}

// Save writes the online network weights.
func (a *Agent) Save(w io.Writer) error { return nn.Save(w, a.online.Params()) }

// Load restores the online network weights.
func (a *Agent) Load(r io.Reader) error { return nn.Load(r, a.online.Params()) }

// Learner trains an Agent's online network in place: a periodically
// synced target network, Adam, an experience-replay pool and the TD(0)
// update of Algorithm 1. Build one per training run and drop it after;
// the agent keeps the trained weights and the update count.
type Learner struct {
	cfg    LearnerConfig
	agent  *Agent
	target *QNetwork
	opt    *nn.Adam
	replay *Replay
	rng    *rand.Rand
	lastTD float64

	// Workspace: scratch reused across updates so a steady-state update
	// performs zero heap allocations.
	valid   []int      // Explore's valid-action scratch
	slots   []int      // minibatch replay-slot scratch
	targets []float64  // bootstrap-target scratch
	grad    *nn.Tensor // one-hot output-gradient scratch

	// Target cache: the target network's Q-vector of each replay slot's
	// Next state (Actions values per slot), current while the slot's
	// stamp equals targetVersion. Stamp 0 marks an empty slot.
	targetQ      []float64
	targetStamp  []uint64
	targetParams []*nn.Param

	// OnTrainStep, when non-nil, observes every gradient update — the
	// training-loop telemetry hook (loss/ε/reward reporting is wired by
	// callers, e.g. cmd/mlcr-train). A nil hook costs one branch.
	OnTrainStep func(TrainStepStats)
}

// NewLearner starts training a with target = online and an empty
// replay. Its random stream is the one NewAgent(…, seed) started: it
// redraws the online initialization, then initializes the target
// network, so replay sampling and Explore continue the stream of an
// agent built from the same seed.
func NewLearner(a *Agent, cfg LearnerConfig, seed int64) *Learner {
	q := a.online.Config()
	rng := rand.New(rand.NewSource(seed))
	NewQNetwork(q, rng) // the online network's initialization draws
	target := NewQNetwork(q, rng)
	nn.CopyParams(target.Params(), a.online.Params())
	opt := nn.NewAdam(a.online.Params(), cfg.LR)
	opt.ClipNorm = clipNorm
	return &Learner{
		cfg:          cfg,
		agent:        a,
		target:       target,
		opt:          opt,
		replay:       NewReplay(cfg.ReplayCapacity),
		rng:          rng,
		targetQ:      make([]float64, cfg.ReplayCapacity*q.Actions),
		targetStamp:  make([]uint64, cfg.ReplayCapacity),
		targetParams: target.Params(),
	}
}

// ReplayLen returns the number of stored transitions.
func (l *Learner) ReplayLen() int { return l.replay.Len() }

// LastTDError returns the mean absolute TD error of the latest update,
// a convergence signal for training loops.
func (l *Learner) LastTDError() float64 { return l.lastTD }

// Explore picks a uniformly random valid action. The Float64 it draws
// and discards first keeps the stream where every pinned trained model
// (mlcr's TestForcedColdKeepsTrainingStream, the figure pins) expects it.
func (l *Learner) Explore(mask []bool) int {
	l.rng.Float64()
	l.valid = l.valid[:0]
	for i, ok := range mask {
		if ok {
			l.valid = append(l.valid, i)
		}
	}
	return l.valid[l.rng.Intn(len(l.valid))]
}

// Observe stores a transition in the replay pool. The pool keeps the
// transition's tensors, not copies, and caches the target network's
// Q-values of t.Next: neither t.State nor t.Next may be mutated
// afterwards.
func (l *Learner) Observe(t Transition) {
	l.targetStamp[l.replay.Add(t)] = 0
}

// TrainStep samples a minibatch and applies one DQN update:
//
//	y_i = r_i                         if done
//	y_i = r_i + γ max_a' Q_target(s', a')  otherwise
//	L   = Σ_i (Q(s_i, a_i) - y_i)² / batch
//
// It returns the mean absolute TD error, or 0 when the replay pool is
// still empty.
func (l *Learner) TrainStep() float64 {
	if l.replay.Len() == 0 {
		return 0
	}
	online := l.agent.online
	l.slots = l.replay.SampleSlots(l.slots, l.cfg.BatchSize, l.rng)
	slots := l.slots
	targets := l.ensureTargets(len(slots))
	version := l.targetVersion()
	cached := 0
	// Pass 1 — bootstrap targets for the whole minibatch. Weights do not
	// change until opt.Step, so batching the next-state passes ahead of
	// the gradient passes produces exactly the per-sample values.
	for i, slot := range slots {
		tr := l.replay.At(slot)
		targets[i] = tr.Reward
		if !tr.Done {
			// Double DQN: the online network selects the next action,
			// the target network evaluates it — reducing the max-
			// operator's overestimation bias.
			oq := online.Forward(tr.Next)
			next, _ := MaskedArgmax(oq, tr.NextMask)
			nq, hit := l.targetQValues(slot, tr.Next, version)
			if hit {
				cached++
			}
			targets[i] += l.cfg.Gamma * nq[next]
		}
	}
	// Pass 2 — forward/backward per sample through the reused workspaces,
	// accumulating gradients in the original sample order.
	var tdSum float64
	for i, slot := range slots {
		tr := l.replay.At(slot)
		q := online.Forward(tr.State)
		td := q.Data[tr.Action] - targets[i]
		tdSum += abs(td)
		// dL/dQ — nonzero only at the taken action; scaled by batch.
		grad := l.ensureGrad(q.Cols)
		grad.Data[tr.Action] = 2 * td / float64(len(slots))
		online.Backward(grad)
		grad.Data[tr.Action] = 0
	}
	l.opt.Step()
	l.agent.updates++
	synced := false
	if l.agent.updates%l.cfg.TargetSync == 0 {
		l.SyncTarget()
		synced = true
	}
	l.lastTD = tdSum / float64(len(slots))
	if l.OnTrainStep != nil {
		l.OnTrainStep(TrainStepStats{
			Update:        l.agent.updates,
			TDError:       l.lastTD,
			ReplayLen:     l.replay.Len(),
			Synced:        synced,
			TargetsCached: cached,
		})
	}
	return l.lastTD
}

// SyncTarget copies online-network weights into the target network.
func (l *Learner) SyncTarget() {
	nn.CopyParams(l.target.Params(), l.agent.online.Params())
}

// targetVersion sums the target parameters' versions. Only
// nn.CopyParams writes the target weights (in NewLearner and
// SyncTarget), and each write bumps every version, so the sum grows
// with every write and is at least 1 from NewLearner on: no write
// leaves a stamp current, and stamp 0 never is.
func (l *Learner) targetVersion() uint64 {
	var v uint64
	for _, p := range l.targetParams {
		v += p.Version()
	}
	return v
}

// targetQValues returns the target network's Q-values of next, the Next
// state stored in replay slot slot, and whether they came from the
// cache. A forward pass depends only on the weights and its input, and
// Observe clears a slot's stamp when it is rewritten, so a current stamp
// means the cached values are the ones a forward pass would compute.
func (l *Learner) targetQValues(slot int, next *nn.Tensor, version uint64) ([]float64, bool) {
	actions := l.target.Config().Actions
	q := l.targetQ[slot*actions : (slot+1)*actions]
	if l.targetStamp[slot] == version {
		return q, true
	}
	copy(q, l.target.Forward(next).Data)
	l.targetStamp[slot] = version
	return q, false
}

// ensureTargets sizes the bootstrap-target scratch.
func (l *Learner) ensureTargets(n int) []float64 {
	if cap(l.targets) < n {
		l.targets = make([]float64, n)
	}
	l.targets = l.targets[:n]
	return l.targets
}

// ensureGrad returns the zeroed one-hot gradient scratch. Callers must
// reset the entry they set before the next use.
func (l *Learner) ensureGrad(cols int) *nn.Tensor {
	if l.grad == nil || l.grad.Cols != cols {
		l.grad = nn.NewTensor(1, cols)
	}
	return l.grad
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
