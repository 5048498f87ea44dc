package drl

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"mlcr/internal/evict"
	"mlcr/internal/image"
	"mlcr/internal/nn"
	"mlcr/internal/platform"
	"mlcr/internal/workload"
)

func fn(id int, os, lang, rt string) *workload.Function {
	ps := []image.Package{{Name: os, Version: "1", Level: image.OS, SizeMB: 10,
		Pull: 100 * time.Millisecond, Install: 10 * time.Millisecond}}
	if lang != "" {
		ps = append(ps, image.Package{Name: lang, Version: "1", Level: image.Language, SizeMB: 40,
			Pull: 400 * time.Millisecond, Install: 40 * time.Millisecond})
	}
	if rt != "" {
		ps = append(ps, image.Package{Name: rt, Version: "1", Level: image.Runtime, SizeMB: 20,
			Pull: 200 * time.Millisecond, Install: 20 * time.Millisecond})
	}
	return &workload.Function{
		ID: id, Name: "f", Image: image.NewImage("img", ps...),
		Create: 250 * time.Millisecond, Clean: 30 * time.Millisecond,
		RuntimeInit: 120 * time.Millisecond, FunctionInit: 20 * time.Millisecond,
		Exec: 500 * time.Millisecond, MemoryMB: 128,
	}
}

// buildEnv runs a tiny workload so the pool holds idle containers, then
// returns an Env via a capture scheduler at the last invocation.
func buildState(t *testing.T, f *Featurizer, warm []*workload.Function, probe *workload.Function) State {
	t.Helper()
	var invs []workload.Invocation
	for i, wf := range warm {
		invs = append(invs, workload.Invocation{Seq: i, Fn: wf, Arrival: time.Duration(i+1) * 10 * time.Second, Exec: wf.Exec})
	}
	invs = append(invs, workload.Invocation{Seq: len(invs), Fn: probe,
		Arrival: time.Duration(len(invs)+1) * 10 * time.Second, Exec: probe.Exec})
	fns := append(append([]*workload.Function{}, warm...), probe)
	seen := map[int]bool{}
	var uniq []*workload.Function
	for _, x := range fns {
		if !seen[x.ID] {
			seen[x.ID] = true
			uniq = append(uniq, x)
		}
	}
	w := workload.Workload{Name: "t", Functions: uniq, Invocations: invs}
	var st State
	captured := false
	sched := captureScheduler{probeSeq: len(invs) - 1, f: f, out: &st, captured: &captured}
	platform.New(platform.Config{PoolCapacityMB: 10000, Evictor: evict.NewLRU()}, sched).Run(w)
	if !captured {
		t.Fatal("probe state not captured")
	}
	return st
}

type captureScheduler struct {
	probeSeq int
	f        *Featurizer
	out      *State
	captured *bool
}

func (captureScheduler) Name() string { return "capture" }
func (c captureScheduler) Schedule(env platform.Env, inv *workload.Invocation) int {
	if inv.Seq == c.probeSeq {
		*c.out = c.f.Build(env, inv)
		*c.captured = true
	}
	return platform.ColdStart
}
func (captureScheduler) OnResult(platform.Env, *workload.Invocation, platform.Result) {}

func TestFeaturizerShapes(t *testing.T) {
	f := &Featurizer{Slots: 4, NormMB: 1024, NormTime: 5 * time.Second}
	st := buildState(t, f, []*workload.Function{fn(1, "debian", "python", "flask")}, fn(2, "debian", "python", "numpy"))
	if st.X.Rows != f.Tokens() || st.X.Cols != f.Width() {
		t.Fatalf("state shape %dx%d, want %dx%d", st.X.Rows, st.X.Cols, f.Tokens(), f.Width())
	}
	if len(st.Mask) != f.Actions() || len(st.Candidates) != f.Slots {
		t.Fatalf("mask/candidates lengths %d/%d", len(st.Mask), len(st.Candidates))
	}
	if !st.Mask[f.Slots] {
		t.Fatal("cold-start action masked out")
	}
	if !st.Mask[0] {
		t.Fatal("matching container slot masked out")
	}
	if st.Mask[1] {
		t.Fatal("empty slot not masked")
	}
	if st.Candidates[0] < 0 {
		t.Fatal("candidate slot empty")
	}
}

func TestFeaturizerMasksNoMatch(t *testing.T) {
	f := &Featurizer{Slots: 4}
	// Warm container has a different OS: no slot should be valid.
	st := buildState(t, f, []*workload.Function{fn(1, "alpine", "node", "express")}, fn(2, "debian", "python", "numpy"))
	for i := 0; i < f.Slots; i++ {
		if st.Mask[i] {
			t.Fatalf("slot %d valid despite OS mismatch", i)
		}
	}
	if !st.Mask[f.Slots] {
		t.Fatal("cold start masked out")
	}
}

func TestFeaturizerRanksDeeperMatchFirst(t *testing.T) {
	f := &Featurizer{Slots: 4}
	probe := fn(3, "debian", "python", "flask")
	// Warm: one L2 container (numpy runtime) and one L3 (same stack).
	st := buildState(t, f, []*workload.Function{
		fn(1, "debian", "python", "numpy"),
		fn(3, "debian", "python", "flask"),
	}, probe)
	if st.Candidates[0] < 0 || st.Candidates[1] < 0 {
		t.Fatalf("expected two candidates, got %v", st.Candidates)
	}
	// Slot 0 must be the L3 match (same-function flag set).
	if st.X.At(2, 7) != 1 {
		t.Fatal("best slot is not the same-function (L3) container")
	}
	// Match-level one-hots: slot 0 at L3, slot 1 at L2.
	l3 := 3 + 8 + 3*hashBuckets + 3
	l2 := 3 + 8 + 3*hashBuckets + 2
	if st.X.At(2, l3) != 1 {
		t.Fatal("slot 0 missing L3 one-hot")
	}
	if st.X.At(3, l2) != 1 {
		t.Fatal("slot 1 missing L2 one-hot")
	}
}

func TestFeaturizerTruncatesToSlots(t *testing.T) {
	f := &Featurizer{Slots: 2}
	var warm []*workload.Function
	for i := 0; i < 5; i++ {
		warm = append(warm, fn(10+i, "debian", "python", "flask"))
	}
	st := buildState(t, f, warm, fn(1, "debian", "python", "flask"))
	if len(st.Candidates) != 2 {
		t.Fatalf("candidates = %v, want 2 slots", st.Candidates)
	}
}

func TestFeaturizerDeterministic(t *testing.T) {
	f := &Featurizer{Slots: 4}
	// Build on the same Featurizer reuses its workspace, so copy the
	// first state's tensor before the second Build overwrites it.
	a := buildState(t, f, []*workload.Function{fn(1, "debian", "python", "flask")}, fn(2, "debian", "python", "numpy")).X.Clone()
	b := buildState(t, f, []*workload.Function{fn(1, "debian", "python", "flask")}, fn(2, "debian", "python", "numpy"))
	for i := range a.Data {
		if a.Data[i] != b.X.Data[i] {
			t.Fatal("featurization not deterministic")
		}
	}
	// A fresh Featurizer must produce the identical state.
	c := buildState(t, &Featurizer{Slots: 4}, []*workload.Function{fn(1, "debian", "python", "flask")}, fn(2, "debian", "python", "numpy"))
	for i := range a.Data {
		if a.Data[i] != c.X.Data[i] {
			t.Fatal("workspace featurizer diverges from fresh featurizer")
		}
	}
}

func TestQNetworkForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := NewQNetwork(QConfig{Tokens: 6, Width: tokenWidth, Actions: 5, Dim: 16, Heads: 2, Hidden: 32}, rng)
	x := nn.NewTensor(6, tokenWidth).Randn(rng, 1)
	out := q.Forward(x)
	if out.Rows != 1 || out.Cols != 5 {
		t.Fatalf("output shape %dx%d, want 1x5", out.Rows, out.Cols)
	}
}

func TestQNetworkPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("missing dims did not panic")
		}
	}()
	NewQNetwork(QConfig{}, rand.New(rand.NewSource(1)))
}

func TestMaskedArgmax(t *testing.T) {
	q := nn.RowVector([]float64{5, 9, 1})
	a, v := MaskedArgmax(q, []bool{true, false, true})
	if a != 0 || v != 5 {
		t.Fatalf("MaskedArgmax = (%d,%v), want (0,5)", a, v)
	}
	a, _ = MaskedArgmax(q, []bool{true, true, true})
	if a != 1 {
		t.Fatalf("unmasked argmax = %d, want 1", a)
	}
}

func TestMaskedArgmaxPanicsAllMasked(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("all-masked argmax did not panic")
		}
	}()
	MaskedArgmax(nn.RowVector([]float64{1, 2}), []bool{false, false})
}

func TestReplayCircular(t *testing.T) {
	r := NewReplay(3)
	if r.Cap() != 3 || r.Len() != 0 {
		t.Fatal("fresh buffer wrong")
	}
	for i := 0; i < 5; i++ {
		r.Add(Transition{Action: i})
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	// Oldest two (actions 0,1) must have been overwritten.
	seen := map[int]bool{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		for _, slot := range r.SampleSlots(nil, 3, rng) {
			seen[r.At(slot).Action] = true
		}
	}
	if seen[0] || seen[1] {
		t.Fatal("overwritten transitions still sampled")
	}
	if !seen[2] || !seen[3] || !seen[4] {
		t.Fatal("recent transitions not sampled")
	}
}

func TestReplayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty sample did not panic")
		}
	}()
	NewReplay(2).SampleSlots(nil, 1, rand.New(rand.NewSource(1)))
}

func TestReplayZeroCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	NewReplay(0)
}

// TestAgentLearnsContextualBandit trains the full network (embedding +
// attention + mask) on a synthetic task where the correct action is
// flagged in the corresponding slot token. A converged agent must pick
// the flagged action nearly always.
func TestAgentLearnsContextualBandit(t *testing.T) {
	const (
		slots   = 3
		tokens  = slots + 2
		actions = slots + 1
	)
	l := NewLearner(NewAgent(QConfig{Tokens: tokens, Width: tokenWidth, Actions: actions, Dim: 16, Heads: 2, Hidden: 32}, 7), LearnerConfig{
		Gamma:          0, // bandit: no bootstrapping
		LR:             3e-3,
		BatchSize:      16,
		ReplayCapacity: 10000,
		TargetSync:     50,
	}, 7)
	agent := l.Agent()
	rng := rand.New(rand.NewSource(8))

	mkState := func(correct int) State {
		x := nn.NewTensor(tokens, tokenWidth)
		mask := make([]bool, actions)
		mask[slots] = true
		for s := 0; s < slots; s++ {
			row := x.Row(2 + s)
			row[2] = 1
			mask[s] = true
			if s == correct {
				row[7] = 1 // the "same function" flag marks the right answer
			}
		}
		return State{X: x, Mask: mask}
	}
	greedy := func(st State) int {
		act, _ := MaskedArgmax(agent.QValues(st.X), st.Mask)
		return act
	}

	for step := 0; step < 600; step++ {
		correct := rng.Intn(slots)
		st := mkState(correct)
		eps := 1.0 - float64(step)/400
		if eps < 0.05 {
			eps = 0.05
		}
		var act int
		if rng.Float64() < eps {
			act = l.Explore(st.Mask)
		} else {
			act = greedy(st)
		}
		reward := -1.0
		if act == correct {
			reward = 0
		}
		l.Observe(Transition{State: st.X, Action: act, Reward: reward, Done: true})
		if step > 32 {
			l.TrainStep()
		}
	}

	good := 0
	const trials = 100
	for i := 0; i < trials; i++ {
		correct := rng.Intn(slots)
		if greedy(mkState(correct)) == correct {
			good++
		}
	}
	if good < 90 {
		t.Fatalf("greedy policy correct on %d/%d trials, want >= 90", good, trials)
	}
	if agent.Updates() == 0 {
		t.Fatal("no updates applied")
	}
}

func TestAgentBootstrapsFutureReward(t *testing.T) {
	// Two-step MDP: action 0 now yields 0 but leads to a state whose
	// best value is +1 under the target net; TrainStep must propagate
	// the discounted value. We verify mechanically: after many updates
	// on a fixed transition, Q(s0, a0) approaches gamma * maxQ(s1).
	l := NewLearner(NewAgent(QConfig{Tokens: 3, Width: tokenWidth, Actions: 2, Dim: 8, Heads: 2, Hidden: 16}, 3), LearnerConfig{
		Gamma:          0.9,
		LR:             5e-3,
		BatchSize:      8,
		ReplayCapacity: 10000,
		// Sync every step so the target tracks online.
		TargetSync: 1,
	}, 3)
	s0 := nn.NewTensor(3, tokenWidth)
	s1 := nn.NewTensor(3, tokenWidth)
	s1.Fill(0.5)
	mask := []bool{true, true}
	// Terminal transition pins Q(s1, a) ≈ +1.
	l.Observe(Transition{State: s1, Action: 0, Reward: 1, Done: true})
	l.Observe(Transition{State: s1, Action: 1, Reward: 1, Done: true})
	// Non-terminal transition from s0.
	l.Observe(Transition{State: s0, Action: 0, Reward: 0, Next: s1, NextMask: mask})
	for i := 0; i < 500; i++ {
		l.TrainStep()
	}
	q0 := l.Agent().QValues(s0).Data[0]
	if q0 < 0.5 || q0 > 1.2 {
		t.Fatalf("Q(s0,a0) = %v, want ≈ 0.9 (bootstrapped)", q0)
	}
}

func TestAgentSaveLoad(t *testing.T) {
	q := QConfig{Tokens: 4, Width: tokenWidth, Actions: 3, Dim: 8, Heads: 2, Hidden: 16}
	a := NewAgent(q, 1)
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := LoadAgent(q, &buf)
	if err != nil {
		t.Fatal(err)
	}
	x := nn.NewTensor(4, tokenWidth).Randn(rand.New(rand.NewSource(5)), 1)
	qa, qb := a.QValues(x), b.QValues(x)
	for i := range qa.Data {
		if qa.Data[i] != qb.Data[i] {
			t.Fatal("loaded agent diverges")
		}
	}
}

// TestLearnerTrainsItsOwnCopy: a clone reads its agent's parameters
// themselves, and a learner trains a copy, so neither the agent it
// started from nor that agent's clones see an update.
func TestLearnerTrainsItsOwnCopy(t *testing.T) {
	q := QConfig{Tokens: 6, Width: tokenWidth, Actions: 5, Dim: 16, Heads: 2, Hidden: 32}
	a := NewAgent(q, 4)
	c := a.Clone()
	for i, p := range a.online.Params() {
		if c.online.Params()[i] != p {
			t.Fatalf("clone param %d is a copy, want the agent's own", i)
		}
	}
	var before [][]float64
	for _, p := range a.online.Params() {
		before = append(before, p.Weights())
	}
	l := NewLearner(a, LearnerConfig{Gamma: 0.95, LR: 1e-2, BatchSize: 8, ReplayCapacity: 32, TargetSync: 3}, 4)
	for _, tr := range cacheStream(q, 32, 1) {
		l.Observe(tr)
	}
	for i := 0; i < 10; i++ {
		l.TrainStep()
	}
	if a.Updates() != 0 || l.Agent().Updates() != 10 {
		t.Fatalf("updates: agent %d, learner's %d; want 0 and 10", a.Updates(), l.Agent().Updates())
	}
	moved := false
	for i, p := range a.online.Params() {
		trained := l.Agent().online.Params()[i].Weights()
		for j, v := range p.Weights() {
			if v != before[i][j] {
				t.Fatalf("training wrote the agent's %s[%d]", p.Name, j)
			}
			moved = moved || trained[j] != v
		}
	}
	if !moved {
		t.Fatal("the learner's copy did not move; the test is vacuous")
	}
}
