package mlcr

import (
	"runtime"
	"testing"
	"time"

	"mlcr/internal/evict"
	"mlcr/internal/fstartbench"
	"mlcr/internal/platform"
	"mlcr/internal/pool"
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

// TestCloneIsIndependentState: a clone holds weight copies, not
// aliases, so training the clone must not move the original's Q-values
// (probed on a fixed state).
func TestCloneIsIndependentState(t *testing.T) {
	w := cloneWorkload()
	s := New(smallCfg(13))
	s.Train(TrainOptions{Episodes: 2, PoolCapacityMB: 512, Workload: func(int) workload.Workload { return w }})
	c := s.Clone()
	runInference(c, w)

	inv := &w.Invocations[0]
	env := platform.Env{Pool: pool.New(0, evict.NewLRU())}
	state := s.feat.Build(env, inv)
	before := append([]float64(nil), s.agent.QValues(state.X).Data...)
	c.Train(TrainOptions{Episodes: 2, PoolCapacityMB: 512, Workload: func(int) workload.Workload { return w }})
	after := s.agent.QValues(state.X).Data
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("training the clone changed the original's weights: Q[%d] %v -> %v", i, before[i], after[i])
		}
	}
}

// liveHeap returns the bytes of live heap objects after a full
// collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestServingSchedulerHeap: a served scheduler is a featurizer and one
// Q-network (weights and gradient buffers, ≈221 KB at the default
// Config). Neither a clone of a default model nor the scheduler Train
// leaves may hold a target network, Adam moments, a replay pool or the
// backward passes' workspaces.
func TestServingSchedulerHeap(t *testing.T) {
	const bound = 250 << 10
	master := New(Config{Seed: 1})
	before := liveHeap()
	c := master.Clone()
	if n := liveHeap() - before; n > bound {
		t.Errorf("one clone of a default model holds %d KB live, want <= %d KB", n>>10, bound>>10)
	}
	runtime.KeepAlive(master)
	runtime.KeepAlive(c)

	w := fstartbench.BuildOverall(5, fstartbench.OverallOptions{Count: 200})
	before = liveHeap()
	s := New(Config{Seed: 1})
	s.Train(TrainOptions{Episodes: 2, PoolCapacityMB: 1024,
		Workload: func(int) workload.Workload { return w }})
	n := liveHeap() - before
	if s.Agent().Updates() == 0 {
		t.Fatal("training applied no updates; the bound would not see backward workspaces")
	}
	if n > bound {
		t.Errorf("a trained default model holds %d KB live, want <= %d KB", n>>10, bound>>10)
	}
	runtime.KeepAlive(s)
}
