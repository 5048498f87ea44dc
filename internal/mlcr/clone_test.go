package mlcr

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"mlcr/internal/drl"
	"mlcr/internal/evict"
	"mlcr/internal/fstartbench"
	"mlcr/internal/platform"
	"mlcr/internal/pool"
	"mlcr/internal/runner"
	"mlcr/internal/workload"
)

// cloneWorkload builds a small workload with reuse structure.
func cloneWorkload() workload.Workload {
	f1 := fn(1, "debian", "python", "flask", 300*time.Millisecond)
	f2 := fn(2, "debian", "python", "numpy", 800*time.Millisecond)
	var pattern []*workload.Function
	for i := 0; i < 8; i++ {
		pattern = append(pattern, f1, f2)
	}
	return seq(pattern, 2*time.Second)
}

func runInference(s *Scheduler, w workload.Workload) *platform.RunResult {
	return platform.New(platform.Config{PoolCapacityMB: 512, Evictor: s.Evictor()}, s).Run(w)
}

// TestCloneMatchesOriginalInference: a clone of a trained scheduler must
// make exactly the decisions of the original — clones are how the
// parallel harness evaluates one trained model in concurrent runs.
func TestCloneMatchesOriginalInference(t *testing.T) {
	w := cloneWorkload()
	s := New(smallCfg(11))
	s.Train(TrainOptions{Episodes: 4, PoolCapacityMB: 512, Workload: func(int) workload.Workload { return w }})

	c := s.Clone()
	orig := runInference(s, w)
	cl := runInference(c, w)
	if orig.Metrics.TotalStartup() != cl.Metrics.TotalStartup() ||
		orig.Metrics.ColdStarts() != cl.Metrics.ColdStarts() {
		t.Fatalf("clone diverged: original (%v, %d colds) vs clone (%v, %d colds)",
			orig.Metrics.TotalStartup(), orig.Metrics.ColdStarts(),
			cl.Metrics.TotalStartup(), cl.Metrics.ColdStarts())
	}
}

// TestCloneCarriesDeviationMargin: the margin tuned on the original at
// clone time must travel with the clone, and later margin changes on
// either side must not leak to the other.
func TestCloneCarriesDeviationMargin(t *testing.T) {
	s := New(smallCfg(12))
	s.SetDeviationMargin(0.42)
	c := s.Clone()
	if got := c.DeviationMargin(); got != 0.42 {
		t.Fatalf("clone margin = %v, want 0.42", got)
	}
	c.SetDeviationMargin(1.5)
	if got := s.DeviationMargin(); got != 0.42 {
		t.Fatalf("clone margin change leaked to original: %v", got)
	}
	s.SetDeviationMargin(0.05)
	if got := c.DeviationMargin(); got != 1.5 {
		t.Fatalf("original margin change leaked to clone: %v", got)
	}
}

// TestCloneIsIndependentState: a clone reads the weights it was taken
// over, and Train writes only a copy of its own, so training the clone
// must not move the original's Q-values, nor training the original
// move a clone's (probed on a fixed state).
func TestCloneIsIndependentState(t *testing.T) {
	w := cloneWorkload()
	train := func(s *Scheduler) {
		s.Train(TrainOptions{Episodes: 4, PoolCapacityMB: 512, Workload: func(int) workload.Workload { return w }})
	}
	s := New(smallCfg(13))
	train(s)
	inv := &w.Invocations[0]
	env := platform.Env{Pool: pool.New(0, evict.NewLRU())}
	state := s.feat.Build(env, inv)
	qvalues := func(s *Scheduler) []float64 { return append([]float64(nil), s.agent.QValues(state.X).Data...) }
	unmoved := func(what string, before, after []float64) {
		t.Helper()
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("%s: Q[%d] %v -> %v", what, i, before[i], after[i])
			}
		}
	}

	c := s.Clone()
	runInference(c, w)
	before := qvalues(s)
	train(c)
	unmoved("training the clone moved the original", before, qvalues(s))

	c = s.Clone()
	before = qvalues(c)
	train(s)
	if after := qvalues(s); after[0] == before[0] {
		t.Fatal("training the original did not move its Q-values; the test is vacuous")
	}
	unmoved("training the original moved its clone", before, qvalues(c))
}

// TestSharedClonesReplayConcurrently owns the contract that served
// weights are read-only: four clones of one trained master read the
// master's weights while each replays the trace on its own goroutine,
// and each run's fingerprint must equal the master's sequential replay.
// A serving path that wrote the shared parameters would show as a data
// race under scripts/check.sh's -race -short step, so the test runs
// under -short.
func TestSharedClonesReplayConcurrently(t *testing.T) {
	train := cloneWorkload()
	master := New(smallCfg(14))
	master.Train(TrainOptions{Episodes: 2, PoolCapacityMB: 512, Workload: func(int) workload.Workload { return train }})
	w := fstartbench.BuildOverall(6, fstartbench.OverallOptions{Count: 200})
	res := runInference(master, w)
	if res.Metrics.WarmStarts() == 0 {
		t.Fatal("the replay reused no container, so no decision ran the network; the test is vacuous")
	}
	want := runner.Fingerprint(res)

	clones := make([]*Scheduler, 4)
	got := make([]string, len(clones))
	var wg sync.WaitGroup
	for i := range clones {
		clones[i] = master.Clone()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = runner.Fingerprint(runInference(clones[i], w))
		}(i)
	}
	wg.Wait()
	for i := range clones {
		if got[i] != want {
			t.Fatalf("clone %d's concurrent replay differs from the master's sequential one", i)
		}
	}
}

// liveHeap returns the bytes of live heap objects after two full
// collections: after New, one collection reads ≈38 KB more than a
// second, twice a batched clone's bound.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestServingSchedulerHeap: a served scheduler is a featurizer and the
// workspaces of one forward pass over weights it shares. A clone with a
// batcher attached that never runs holds next to nothing, an unbatched
// clone after a replay holds its workspaces and no weights, and the
// scheduler Train leaves holds the weights of one Q-network (≈99 KB at
// the default Config; ≈205 KB when it kept the learner's gradient
// buffers) but no gradient, target network, Adam moments, replay pool
// or backward workspaces. The trained bound leaves ≈29 KB over that
// reading for allocator size classes and GC timing.
func TestServingSchedulerHeap(t *testing.T) {
	const batchedBound, replayedBound, trainedBound = 16 << 10, 48 << 10, 128 << 10
	master := New(Config{Seed: 1})
	qb := drl.NewQBatcher(master.Agent().Online(), 0)
	before := liveHeap()
	c := master.Clone()
	c.SetBatcher(qb)
	batched := liveHeap() - before
	if batched > batchedBound {
		t.Errorf("a batched clone of a default model holds %d KB live, want <= %d KB", batched>>10, batchedBound>>10)
	}
	runtime.KeepAlive(c)

	w := fstartbench.BuildOverall(5, fstartbench.OverallOptions{Count: 200})
	before = liveHeap()
	c = master.Clone()
	if runInference(c, w).Metrics.WarmStarts() == 0 {
		t.Fatal("the replay reused no container, so no decision ran the network; the bound would not see its workspaces")
	}
	replayed := liveHeap() - before
	if replayed > replayedBound {
		t.Errorf("an unbatched clone after a %d-invocation replay holds %d KB live, want <= %d KB",
			len(w.Invocations), replayed>>10, replayedBound>>10)
	}
	runtime.KeepAlive(c)
	runtime.KeepAlive(master)

	before = liveHeap()
	s := New(Config{Seed: 1})
	s.Train(TrainOptions{Episodes: 2, PoolCapacityMB: 1024,
		Workload: func(int) workload.Workload { return w }})
	n := liveHeap() - before
	if s.Agent().Updates() == 0 {
		t.Fatal("training applied no updates; the bound would not see backward workspaces")
	}
	if n > trainedBound {
		t.Errorf("a trained default model holds %d KB live, want <= %d KB", n>>10, trainedBound>>10)
	}
	t.Logf("live heap: batched clone %d B, replayed clone %d B, trained model %d B", batched, replayed, n)
	runtime.KeepAlive(s)
}
