package drl

import (
	"math/rand"
	"testing"
	"time"

	"mlcr/internal/evict"
	"mlcr/internal/nn"
	"mlcr/internal/platform"
	"mlcr/internal/workload"
)

func hotpathState(t *testing.T) State {
	t.Helper()
	f := &Featurizer{Slots: 4}
	warm := []*workload.Function{
		fn(1, "debian", "python", "flask"),
		fn(2, "debian", "python", "numpy"),
		fn(3, "debian", "node", "express"),
	}
	return buildState(t, f, warm, fn(4, "debian", "python", "flask"))
}

// TestForwardIntoMatchesForward locks ForwardInto to the training-path
// Forward bit-for-bit, and checks the returned tensor is caller-owned:
// it must survive subsequent forward passes on other states.
func TestForwardIntoMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := NewQNetwork(QConfig{Tokens: 6, Width: tokenWidth, Actions: 5, Dim: 16, Heads: 2, Hidden: 32}, rng)
	a := nn.NewTensor(6, tokenWidth).Randn(rng, 1)
	b := nn.NewTensor(6, tokenWidth).Randn(rng, 1)

	want := q.Forward(a).Clone()
	got := q.ForwardInto(nil, a)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("ForwardInto[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
	// Another forward must not disturb the ForwardInto result.
	q.Forward(b)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("ForwardInto result clobbered at %d after later Forward", i)
		}
	}
	// Reusing the destination keeps the equivalence.
	got = q.ForwardInto(got, b)
	want = q.Forward(b)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("reused-dst ForwardInto[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestServingDecisionZeroAllocs asserts the served decision (the online
// network's Q-values over a featurized state, then the masked argmax)
// allocates nothing once the network workspaces are warm.
func TestServingDecisionZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	st := hotpathState(t)
	f := &Featurizer{Slots: 4}
	agent := NewAgent(QConfig{
		Tokens: f.Tokens(), Width: f.Width(), Actions: f.Actions(),
		Dim: 16, Heads: 2, Hidden: 32,
	}, 1)
	decide := func() { MaskedArgmax(agent.QValues(st.X), st.Mask) }
	decide() // warm workspaces
	if n := testing.AllocsPerRun(100, decide); n != 0 {
		t.Fatalf("steady-state serving decision allocates %v per run, want 0", n)
	}
}

// TestTrainStepWithWorkspaces smoke-checks the two-pass batched update:
// training on identical transition streams from identically seeded agents
// yields identical weights (the update is deterministic), and the
// reusable gradient scratch leaves no residue between samples.
func TestTrainStepWithWorkspaces(t *testing.T) {
	st := hotpathState(t)
	mkLearner := func() *Learner {
		f := &Featurizer{Slots: 4}
		return NewLearner(NewAgent(QConfig{
			Tokens: f.Tokens(), Width: f.Width(), Actions: f.Actions(),
			Dim: 16, Heads: 2, Hidden: 32,
		}, 7), LearnerConfig{Gamma: 0.95, LR: 1e-3, BatchSize: 8, ReplayCapacity: 10000, TargetSync: 3}, 7)
	}
	a, b := mkLearner(), mkLearner()
	for _, l := range []*Learner{a, b} {
		for i := 0; i < 20; i++ {
			l.Observe(Transition{
				State:    st.X,
				Action:   i % f4Actions(st),
				Reward:   float64(i%3) - 1,
				Next:     st.X,
				NextMask: st.Mask,
				Done:     i%5 == 0,
			})
		}
		for i := 0; i < 6; i++ {
			l.TrainStep()
		}
	}
	pa, pb := a.agent.online.Params(), b.agent.online.Params()
	for i := range pa {
		wa, wb := pa[i].Weights(), pb[i].Weights()
		for j := range wa {
			if wa[j] != wb[j] {
				t.Fatalf("param %s[%d] diverged between identical training runs", pa[i].Name, j)
			}
		}
	}
	if a.grad != nil {
		for i, v := range a.grad.Data {
			if v != 0 {
				t.Fatalf("gradient scratch not reset: entry %d = %v", i, v)
			}
		}
	}
}

// f4Actions returns the action count implied by a state's mask.
func f4Actions(st State) int { return len(st.Mask) }

// envCaptureScheduler records the last decision point seen by the
// platform so featurization can be replayed outside the run.
type envCaptureScheduler struct {
	env *platform.Env
	inv **workload.Invocation
}

func (envCaptureScheduler) Name() string { return "env-capture" }
func (s envCaptureScheduler) Schedule(env platform.Env, inv *workload.Invocation) int {
	*s.env, *s.inv = env, inv
	return platform.ColdStart
}
func (envCaptureScheduler) OnResult(platform.Env, *workload.Invocation, platform.Result) {}

// TestFeaturizerBuildZeroAllocs guards the satellite fix: a warm
// featurizer rebuilds the state (pool match, candidate sort, tensor,
// mask, ids) without touching the heap.
func TestFeaturizerBuildZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	fns := []*workload.Function{
		fn(1, "debian", "python", "flask"),
		fn(2, "debian", "python", "numpy"),
		fn(3, "debian", "node", "express"),
	}
	var invs []workload.Invocation
	for i, wf := range fns {
		invs = append(invs, workload.Invocation{Seq: i, Fn: wf,
			Arrival: time.Duration(i+1) * 10 * time.Second, Exec: wf.Exec})
	}
	var env platform.Env
	var inv *workload.Invocation
	platform.New(platform.Config{PoolCapacityMB: 10000, Evictor: evict.NewLRU()},
		envCaptureScheduler{env: &env, inv: &inv}).
		Run(workload.Workload{Name: "t", Functions: fns, Invocations: invs})
	if inv == nil {
		t.Fatal("no decision point captured")
	}
	f := &Featurizer{Slots: 4}
	f.Build(env, inv) // warm the workspaces
	if n := testing.AllocsPerRun(100, func() { f.Build(env, inv) }); n != 0 {
		t.Fatalf("steady-state Featurizer.Build allocates %v per run, want 0", n)
	}
}
