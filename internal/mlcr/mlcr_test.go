package mlcr

import (
	"bytes"
	"testing"
	"time"

	"mlcr/internal/drl"
	"mlcr/internal/image"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/workload"
)

func fn(id int, os, lang, rt string, rtPull time.Duration) *workload.Function {
	ps := []image.Package{{Name: os, Version: "1", Level: image.OS, SizeMB: 10,
		Pull: 100 * time.Millisecond, Install: 10 * time.Millisecond}}
	if lang != "" {
		ps = append(ps, image.Package{Name: lang, Version: "1", Level: image.Language, SizeMB: 40,
			Pull: 400 * time.Millisecond, Install: 40 * time.Millisecond})
	}
	if rt != "" {
		ps = append(ps, image.Package{Name: rt, Version: "1", Level: image.Runtime, SizeMB: 20,
			Pull: rtPull, Install: rtPull / 10})
	}
	return &workload.Function{
		ID: id, Name: os + "-" + lang + "-" + rt, Image: image.NewImage("img", ps...),
		Create: 250 * time.Millisecond, Clean: 30 * time.Millisecond,
		RuntimeInit: 120 * time.Millisecond, FunctionInit: 20 * time.Millisecond,
		Exec: 200 * time.Millisecond, MemoryMB: 128,
	}
}

func seq(fns []*workload.Function, gap time.Duration) workload.Workload {
	invs := make([]workload.Invocation, len(fns))
	for i, f := range fns {
		invs[i] = workload.Invocation{Seq: i, Fn: f, Arrival: time.Duration(i+1) * gap, Exec: f.Exec}
	}
	seen := map[int]bool{}
	var uniq []*workload.Function
	for _, f := range fns {
		if !seen[f.ID] {
			seen[f.ID] = true
			uniq = append(uniq, f)
		}
	}
	return workload.Workload{Name: "seq", Functions: uniq, Invocations: invs}
}

// smallCfg keeps tests fast on CPU.
func smallCfg(seed int64) Config {
	return Config{
		Slots: 4, Dim: 16, Heads: 2, Hidden: 32,
		Gamma: 0.9, LR: 2e-3, BatchSize: 16,
		TargetSync: 50, TrainEvery: 1, WarmupObservations: 32,
		EpsilonDecayEpisodes: 10, DeviationMargin: 0.05, Seed: seed,
	}
}

func TestSchedulerInterfaceBasics(t *testing.T) {
	s := New(smallCfg(1))
	if s.Name() != "MLCR" {
		t.Fatalf("Name = %q", s.Name())
	}
	if s.Evictor().Name() != "lru" {
		t.Fatalf("Evictor = %q, want lru", s.Evictor().Name())
	}
	if eps := newTrainer(s).epsilon; eps != 1 {
		t.Fatalf("initial training epsilon = %v, want 1", eps)
	}
}

func TestUntrainedSchedulerRunsLegally(t *testing.T) {
	// Even with random weights, masking must keep every decision legal
	// (the platform panics on illegal reuse).
	s := New(smallCfg(2))
	f1 := fn(1, "debian", "python", "flask", 200*time.Millisecond)
	f2 := fn(2, "debian", "python", "numpy", 200*time.Millisecond)
	w := seq([]*workload.Function{f1, f2, f1, f2, f1, f2}, 5*time.Second)
	res := platform.New(platform.Config{PoolCapacityMB: 1000, Evictor: s.Evictor()}, s).Run(w)
	if res.Metrics.Count() != 6 {
		t.Fatalf("scheduled %d invocations", res.Metrics.Count())
	}
}

func TestEpsilonDecay(t *testing.T) {
	tr := newTrainer(New(smallCfg(3)))
	for i := 0; i < 20; i++ {
		tr.endEpisode()
	}
	if got := tr.epsilon; got < epsilonEnd-1e-9 || got > epsilonEnd+1e-9 {
		t.Fatalf("epsilon after full decay = %v, want %v", got, epsilonEnd)
	}
}

func TestTrainImprovesOverRandomPolicy(t *testing.T) {
	// Repeating pattern with an exploitable structure.
	f1 := fn(1, "debian", "python", "flask", 300*time.Millisecond)
	f2 := fn(2, "debian", "python", "numpy", 2*time.Second)
	var pattern []*workload.Function
	for i := 0; i < 10; i++ {
		pattern = append(pattern, f1, f2)
	}
	w := seq(pattern, 5*time.Second)

	s := New(smallCfg(4))
	stats := s.Train(TrainOptions{
		Episodes:       12,
		PoolCapacityMB: 256, // room for two containers
		Workload:       func(int) workload.Workload { return w },
	})
	if len(stats) != 12 {
		t.Fatalf("got %d episode stats", len(stats))
	}

	// Evaluate greedily after training.
	res := platform.New(platform.Config{PoolCapacityMB: 256, Evictor: s.Evictor()}, s).Run(w)

	// A random-but-legal policy baseline: a trainer whose epsilon is
	// held at 1 explores on every decision.
	r := newTrainer(New(smallCfg(5)))
	r.epsilon = 1
	rRes := platform.New(platform.Config{PoolCapacityMB: 256, Evictor: r.s.Evictor()}, r).Run(w)

	if res.Metrics.TotalStartup() >= rRes.Metrics.TotalStartup() {
		t.Fatalf("trained MLCR (%v) not better than random policy (%v)",
			res.Metrics.TotalStartup(), rRes.Metrics.TotalStartup())
	}
}

func TestTrainedBeatsGreedyOnFig2Pattern(t *testing.T) {
	// The Figure 2 trap, repeated: greedy repacks the expensive
	// container for the cheap function and repeatedly pays the huge
	// runtime pull; a workload-aware policy keeps it intact.
	fML := fn(2, "debian", "python", "tensorflow", 8*time.Second)
	fWeb := fn(3, "debian", "python", "web2", 100*time.Millisecond)
	fWeb1 := fn(4, "debian", "python", "web1", 100*time.Millisecond)
	var pattern []*workload.Function
	pattern = append(pattern, fWeb1, fML)
	for i := 0; i < 12; i++ {
		pattern = append(pattern, fWeb, fML)
	}
	w := seq(pattern, 15*time.Second)

	g := policy.NewGreedyMatch()
	gRes := platform.New(platform.Config{PoolCapacityMB: 20000, Evictor: g.Evictor()}, g).Run(w)

	s := New(smallCfg(6))
	s.Train(TrainOptions{
		Episodes:       20,
		PoolCapacityMB: 20000,
		Workload:       func(int) workload.Workload { return w },
	})
	mRes := platform.New(platform.Config{PoolCapacityMB: 20000, Evictor: s.Evictor()}, s).Run(w)

	if mRes.Metrics.TotalStartup() >= gRes.Metrics.TotalStartup() {
		t.Fatalf("trained MLCR (%v) not better than Greedy-Match (%v) on the Fig-2 pattern",
			mRes.Metrics.TotalStartup(), gRes.Metrics.TotalStartup())
	}
}

// TestSaveLoadRoundtrip: a model describes itself. Load rebuilds the
// scheduler from the file alone — the same Config, the featurizer norm
// and a tuned margin included — and it makes the original's decisions.
func TestSaveLoadRoundtrip(t *testing.T) {
	f1 := fn(1, "debian", "python", "flask", 300*time.Millisecond)
	f2 := fn(2, "debian", "python", "numpy", 500*time.Millisecond)
	w := seq([]*workload.Function{f1, f2, f1, f1, f2, f1, f2, f2}, 2*time.Second)
	cfg := smallCfg(7)
	cfg.NormMB, cfg.NormTime = 777, 3*time.Second
	a := New(cfg)
	a.Train(TrainOptions{Episodes: 3, PoolCapacityMB: 500,
		Workload: func(int) workload.Workload { return w }})
	a.SetDeviationMargin(0.2)
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.Config() != a.Config() || b.Config().NormMB != 777 || b.DeviationMargin() != 0.2 {
		t.Fatalf("loaded config %+v, saved %+v", b.Config(), a.Config())
	}
	ra := platform.New(platform.Config{PoolCapacityMB: 500, Evictor: a.Evictor()}, a).Run(w)
	rb := platform.New(platform.Config{PoolCapacityMB: 500, Evictor: b.Evictor()}, b).Run(w)
	as, bs := ra.Metrics.Samples(), rb.Metrics.Samples()
	if len(as) != len(bs) {
		t.Fatalf("sample counts differ: %d vs %d", len(as), len(bs))
	}
	for i := range as {
		if as[i] != bs[i] {
			t.Fatalf("decision %d differs: saved %+v, loaded %+v", i, as[i], bs[i])
		}
	}
}

func TestTrainPanicsOnBadOptions(t *testing.T) {
	s := New(smallCfg(9))
	defer func() {
		if recover() == nil {
			t.Fatal("zero episodes did not panic")
		}
	}()
	s.Train(TrainOptions{Episodes: 0, Workload: func(int) workload.Workload { return workload.Workload{} }})
}

func TestTrainRequiresWorkload(t *testing.T) {
	s := New(smallCfg(10))
	defer func() {
		if recover() == nil {
			t.Fatal("nil workload generator did not panic")
		}
	}()
	s.Train(TrainOptions{Episodes: 1})
}

func TestInferenceDeterministic(t *testing.T) {
	f1 := fn(1, "debian", "python", "flask", 300*time.Millisecond)
	f2 := fn(2, "debian", "python", "numpy", 500*time.Millisecond)
	w := seq([]*workload.Function{f1, f2, f1, f2, f1}, 5*time.Second)
	s := New(smallCfg(11))
	s.Train(TrainOptions{Episodes: 4, PoolCapacityMB: 500,
		Workload: func(int) workload.Workload { return w }})
	a := platform.New(platform.Config{PoolCapacityMB: 500, Evictor: s.Evictor()}, s).Run(w)
	b := platform.New(platform.Config{PoolCapacityMB: 500, Evictor: s.Evictor()}, s).Run(w)
	if a.Metrics.TotalStartup() != b.Metrics.TotalStartup() {
		t.Fatal("greedy inference not deterministic")
	}
}

// TestBatchedInferenceMatchesSequential pins the serving-path
// equivalence contract end to end: a clone whose forward passes run
// through a shared QBatcher (wrapping the master's online network, as
// the gateway wires it) replays a workload with decision-for-decision
// identical outcomes to a plain sequential clone.
func TestBatchedInferenceMatchesSequential(t *testing.T) {
	f1 := fn(1, "debian", "python", "flask", 300*time.Millisecond)
	f2 := fn(2, "debian", "python", "numpy", 500*time.Millisecond)
	f3 := fn(3, "alpine", "node", "express", 200*time.Millisecond)
	w := seq([]*workload.Function{f1, f2, f3, f1, f2, f1, f3, f2, f1, f1}, 3*time.Second)
	master := New(smallCfg(23))
	master.Train(TrainOptions{Episodes: 4, PoolCapacityMB: 500,
		Workload: func(int) workload.Workload { return w }})

	seqClone := master.Clone()
	batClone := master.Clone()
	batClone.SetBatcher(drl.NewQBatcher(master.Agent().Online(), 8))

	a := platform.New(platform.Config{PoolCapacityMB: 500, Evictor: seqClone.Evictor()}, seqClone).Run(w)
	b := platform.New(platform.Config{PoolCapacityMB: 500, Evictor: batClone.Evictor()}, batClone).Run(w)
	as, bs := a.Metrics.Samples(), b.Metrics.Samples()
	if len(as) != len(bs) {
		t.Fatalf("sample counts differ: %d vs %d", len(as), len(bs))
	}
	for i := range as {
		if as[i] != bs[i] {
			t.Fatalf("decision %d differs: sequential %+v vs batched %+v", i, as[i], bs[i])
		}
	}
	if a.Metrics.TotalStartup() != b.Metrics.TotalStartup() {
		t.Fatal("batched inference changed total startup")
	}
}
