package drl

import (
	"bytes"
	"math/rand"
	"testing"

	"mlcr/internal/nn"
)

// cacheStream returns n chained transitions over random states: the
// Next of transition i is the State of transition i+1, as mlcr.Schedule
// stores them. Every seventh is terminal and masks vary, so both target
// branches and masked argmaxes are exercised.
func cacheStream(q QConfig, n int, seed int64) []Transition {
	rng := rand.New(rand.NewSource(seed))
	states := make([]*nn.Tensor, n+1)
	for i := range states {
		states[i] = nn.NewTensor(q.Tokens, q.Width)
		for j := range states[i].Data {
			states[i].Data[j] = rng.Float64()
		}
	}
	out := make([]Transition, n)
	for i := range out {
		mask := make([]bool, q.Actions)
		mask[q.Actions-1] = true
		for a := 0; a < q.Actions-1; a++ {
			mask[a] = rng.Intn(3) > 0
		}
		out[i] = Transition{
			State:    states[i],
			Action:   rng.Intn(q.Actions),
			Reward:   rng.Float64() - 0.5,
			Next:     states[i+1],
			NextMask: mask,
			Done:     i%7 == 6,
		}
	}
	return out
}

// drawn counts the non-terminal draws of the learner's latest minibatch
// and the distinct slots among them: the target forwards that minibatch
// needs when no cache entry is current at its start.
func drawn(l *Learner) (live, distinct int) {
	seen := map[int]bool{}
	for _, s := range l.slots {
		if !l.replay.At(s).Done {
			live++
			seen[s] = true
		}
	}
	return live, len(seen)
}

func sameParams(t *testing.T, what string, got, want []*nn.Param) {
	t.Helper()
	for i := range want {
		g := got[i].Weights()
		for j, v := range want[i].Weights() {
			if g[j] != v {
				t.Fatalf("%s %s[%d] = %v, want %v", what, got[i].Name, j, g[j], v)
			}
		}
	}
}

// TestTargetCacheInvisible trains two identically seeded learners on
// one transition stream, through replay overwrites, scheduled target
// syncs, a Load of the online weights (which leaves the target, and so
// the cache, current) and a Load followed by SyncTarget (which writes
// the target as NewLearner does). One learner's cache is emptied before
// every update, so it runs the target forward of every distinct sampled
// slot; the other serves what it can from the cache. Their weights must
// end bit for bit equal, and the cached learner must have both served
// hits and missed on every slot after each write to the target weights.
func TestTargetCacheInvisible(t *testing.T) {
	q := QConfig{Tokens: 6, Width: tokenWidth, Actions: 5, Dim: 16, Heads: 2, Hidden: 32}
	cfg := LearnerConfig{Gamma: 0.95, LR: 1e-3, BatchSize: 8, ReplayCapacity: 16, TargetSync: 3}
	cached, fresh := NewLearner(NewAgent(q, 7), cfg, 7), NewLearner(NewAgent(q, 7), cfg, 7)
	var snapshot bytes.Buffer
	if err := NewAgent(q, 99).Save(&snapshot); err != nil {
		t.Fatal(err)
	}

	var last TrainStepStats
	cached.OnTrainStep = func(st TrainStepStats) { last = st }
	var freshCached int
	fresh.OnTrainStep = func(st TrainStepStats) { freshCached = st.TargetsCached }

	const updates = 72
	stream := cacheStream(q, updates+8, 3)
	for _, tr := range stream[:8] {
		cached.Observe(tr)
		fresh.Observe(tr)
	}
	hits, written := 0, true // NewLearner wrote the target weights
	load := func() {
		for _, l := range []*Learner{cached, fresh} {
			if err := nn.Load(bytes.NewReader(snapshot.Bytes()), l.agent.online.Params()); err != nil {
				t.Fatal(err)
			}
		}
	}
	sync := func() {
		cached.SyncTarget()
		fresh.SyncTarget()
		written = true
	}
	for u := 0; u < updates; u++ {
		cached.Observe(stream[u+8])
		fresh.Observe(stream[u+8])
		switch u {
		case 20: // a sync off the TargetSync schedule
			sync()
		case 40: // new online weights; the target, and its cache, stay current
			load()
		case 55: // online and target both take the snapshot
			load()
			sync()
		}
		clear(fresh.targetStamp)
		tdCached, tdFresh := cached.TrainStep(), fresh.TrainStep()
		if tdCached != tdFresh {
			t.Fatalf("update %d: TD error %v cached, %v uncached", u+1, tdCached, tdFresh)
		}
		live, distinct := drawn(cached)
		if freshLive, freshDistinct := drawn(fresh); freshLive-freshCached != freshDistinct {
			t.Fatalf("update %d: uncached learner ran %d target forwards, want %d",
				u+1, freshLive-freshCached, freshDistinct)
		}
		misses := live - last.TargetsCached
		if misses > distinct || written && misses != distinct {
			t.Fatalf("update %d: %d target forwards for %d distinct slots (target weights written: %v)",
				u+1, misses, distinct, written)
		}
		hits += distinct - misses
		written = last.Synced
	}
	if cached.replay.Len() != cfg.ReplayCapacity {
		t.Fatalf("replay holds %d, want a full pool of %d", cached.replay.Len(), cfg.ReplayCapacity)
	}
	if hits == 0 {
		t.Fatal("no target was served from an earlier update's cache entry; the test is vacuous")
	}
	sameParams(t, "online", cached.agent.online.Params(), fresh.agent.online.Params())
	sameParams(t, "target", cached.target.Params(), fresh.target.Params())
}

// TestTrainStepZeroAllocs checks that a warm TrainStep allocates
// nothing: the target cache is sized once, by NewLearner.
func TestTrainStepZeroAllocs(t *testing.T) {
	q := QConfig{Tokens: 6, Width: tokenWidth, Actions: 5, Dim: 16, Heads: 2, Hidden: 32}
	l := NewLearner(NewAgent(q, 1), LearnerConfig{Gamma: 0.95, LR: 1e-3, BatchSize: 8, ReplayCapacity: 32, TargetSync: 1000}, 1)
	for _, tr := range cacheStream(q, 32, 2) {
		l.Observe(tr)
	}
	l.TrainStep()
	cache := &l.targetQ[0]
	if !raceEnabled {
		if n := testing.AllocsPerRun(50, func() { l.TrainStep() }); n != 0 {
			t.Fatalf("steady-state TrainStep allocates %v per run, want 0", n)
		}
	}
	l.SyncTarget()
	l.Observe(cacheStream(q, 1, 4)[0])
	l.TrainStep()
	if &l.targetQ[0] != cache {
		t.Fatal("target cache reallocated after a target sync")
	}
}

// BenchmarkTrainStep times one DQN update at the shape the repository
// benchmark trains: 4 slots, Dim 24, Hidden 48, batch 32, TargetSync
// 200, over a full 1,600-transition replay (the size of a 4-episode,
// 400-invocation training). Besides ns/op it reports the target-network
// forwards per update; every transition is non-terminal, so each
// minibatch entry not served from the cache is one forward.
func BenchmarkTrainStep(b *testing.B) {
	f := &Featurizer{Slots: 4}
	q := QConfig{Tokens: f.Tokens(), Width: f.Width(), Actions: f.Actions(), Dim: 24, Heads: 2, Hidden: 48}
	cfg := LearnerConfig{Gamma: 0.95, LR: 1e-3, BatchSize: 32, ReplayCapacity: 1600, TargetSync: 200}
	l := NewLearner(NewAgent(q, 1), cfg, 1)
	for _, tr := range cacheStream(q, cfg.ReplayCapacity, 1) {
		tr.Done = false
		l.Observe(tr)
	}
	cached := 0
	l.OnTrainStep = func(st TrainStepStats) { cached += st.TargetsCached }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.TrainStep()
	}
	b.ReportMetric(float64(b.N*cfg.BatchSize-cached)/float64(b.N), "target-fwd/update")
}

// trainStepForwardingEveryNext is TrainStep as it was before a forced
// next state skipped its online forward: pass 1 runs the online network
// on every non-terminal Next and takes the masked argmax.
func trainStepForwardingEveryNext(l *Learner) {
	online := l.agent.online
	l.slots = l.replay.SampleSlots(l.slots, l.cfg.BatchSize, l.rng)
	targets := l.ensureTargets(len(l.slots))
	version := l.targetVersion()
	for i, slot := range l.slots {
		tr := l.replay.At(slot)
		targets[i] = tr.Reward
		if !tr.Done {
			next, _ := MaskedArgmax(online.Forward(tr.Next), tr.NextMask)
			nq, _ := l.targetQValues(slot, tr.Next, version)
			targets[i] += l.cfg.Gamma * nq[next]
		}
	}
	for i, slot := range l.slots {
		tr := l.replay.At(slot)
		q := online.Forward(tr.State)
		grad := l.ensureGrad(q.Cols)
		grad.Data[tr.Action] = 2 * (q.Data[tr.Action] - targets[i]) / float64(len(l.slots))
		online.Backward(grad)
		grad.Data[tr.Action] = 0
	}
	l.opt.Step()
	l.agent.updates++
	if l.agent.updates%l.cfg.TargetSync == 0 {
		l.SyncTarget()
	}
}

// TestForcedNextSkipsOnlineForward: over a replay where 40% of next
// states can only cold-start, 50 updates that select a forced next
// action without an online forward end with the weights, bit for bit,
// of 50 updates that run it.
func TestForcedNextSkipsOnlineForward(t *testing.T) {
	q := QConfig{Tokens: 6, Width: tokenWidth, Actions: 5, Dim: 16, Heads: 2, Hidden: 32}
	cfg := LearnerConfig{Gamma: 0.95, LR: 1e-3, BatchSize: 8, ReplayCapacity: 32, TargetSync: 7}
	cut, full := NewLearner(NewAgent(q, 5), cfg, 5), NewLearner(NewAgent(q, 5), cfg, 5)
	const updates = 50
	stream := cacheStream(q, updates+32, 6)
	forced := 0
	for i := range stream {
		if i%5 < 2 {
			stream[i].NextMask = make([]bool, q.Actions)
			stream[i].NextMask[q.Actions-1] = true
		}
		if _, ok := onlyAction(stream[i].NextMask); ok && !stream[i].Done {
			forced++
		}
	}
	if share := float64(forced) / float64(len(stream)); share < 0.3 {
		t.Fatalf("%.0f%% of the stream's next states are forced, want >= 30%%", 100*share)
	}
	for _, tr := range stream[:32] {
		cut.Observe(tr)
		full.Observe(tr)
	}
	for u := 0; u < updates; u++ {
		cut.Observe(stream[32+u])
		full.Observe(stream[32+u])
		cut.TrainStep()
		trainStepForwardingEveryNext(full)
	}
	sameParams(t, "online", cut.agent.online.Params(), full.agent.online.Params())
	sameParams(t, "target", cut.target.Params(), full.target.Params())
}
