package policy

import (
	"testing"
	"time"

	"mlcr/internal/core"
	"mlcr/internal/image"
	"mlcr/internal/platform"
	"mlcr/internal/workload"
)

func fn(id int, os, lang string, rts []string, rtPull time.Duration, mem float64) *workload.Function {
	ps := []image.Package{{Name: os, Version: "1", Level: image.OS, SizeMB: 10,
		Pull: 100 * time.Millisecond, Install: 10 * time.Millisecond}}
	if lang != "" {
		ps = append(ps, image.Package{Name: lang, Version: "1", Level: image.Language, SizeMB: 40,
			Pull: 400 * time.Millisecond, Install: 40 * time.Millisecond})
	}
	for _, rt := range rts {
		ps = append(ps, image.Package{Name: rt, Version: "1", Level: image.Runtime, SizeMB: 20,
			Pull: rtPull, Install: rtPull / 10})
	}
	return &workload.Function{
		ID: id, Name: os + "-" + lang, Image: image.NewImage("img", ps...),
		Create: 250 * time.Millisecond, Clean: 30 * time.Millisecond,
		RuntimeInit: 120 * time.Millisecond, FunctionInit: 20 * time.Millisecond,
		Exec: 200 * time.Millisecond, MemoryMB: mem,
	}
}

func seq(fns []*workload.Function, gap time.Duration) workload.Workload {
	invs := make([]workload.Invocation, len(fns))
	for i, f := range fns {
		invs[i] = workload.Invocation{Seq: i, Fn: f, Arrival: time.Duration(i+1) * gap, Exec: f.Exec}
	}
	// Dedup function list.
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

func TestLRUReusesSameFunctionOnly(t *testing.T) {
	f1 := fn(1, "debian", "python", []string{"flask"}, 200*time.Millisecond, 100)
	f2 := fn(2, "debian", "python", []string{"numpy"}, 200*time.Millisecond, 100)
	w := seq([]*workload.Function{f1, f2, f1, f2}, 10*time.Second)
	p := platform.New(platform.Config{PoolCapacityMB: 1000, Evictor: NewLRU().Evictor()}, NewLRU())
	res := p.Run(w)
	// f1 and f2 are similar but distinct: LRU cold-starts each once,
	// then reuses the function's own container.
	if res.Metrics.ColdStarts() != 2 {
		t.Fatalf("cold starts = %d, want 2", res.Metrics.ColdStarts())
	}
	if res.CleanerOps.Repacks != 0 {
		t.Fatalf("LRU repacked containers across functions: %+v", res.CleanerOps)
	}
}

func TestGreedyMatchReusesAcrossFunctions(t *testing.T) {
	f1 := fn(1, "debian", "python", []string{"flask"}, 200*time.Millisecond, 100)
	f2 := fn(2, "debian", "python", []string{"numpy"}, 200*time.Millisecond, 100)
	w := seq([]*workload.Function{f1, f2, f1, f2}, 10*time.Second)
	g := NewGreedyMatch()
	p := platform.New(platform.Config{PoolCapacityMB: 1000, Evictor: g.Evictor()}, g)
	res := p.Run(w)
	if res.Metrics.ColdStarts() != 1 {
		t.Fatalf("cold starts = %d, want 1 (L2 reuse across functions)", res.Metrics.ColdStarts())
	}
}

func TestGreedyMatchPrefersDeeperLevel(t *testing.T) {
	f1 := fn(1, "debian", "python", []string{"flask"}, 200*time.Millisecond, 100)
	f2 := fn(2, "debian", "python", []string{"numpy"}, 200*time.Millisecond, 100)
	// f2 arrives while f1's container is still busy, so it cold-starts
	// its own container. When f1 returns, warm containers for both
	// functions are idle and greedy must pick f1's own (L3), not f2's
	// (L2).
	w := workload.Workload{Name: "deep", Functions: []*workload.Function{f1, f2},
		Invocations: []workload.Invocation{
			{Seq: 0, Fn: f1, Arrival: time.Second, Exec: f1.Exec},
			{Seq: 1, Fn: f2, Arrival: time.Second + 50*time.Millisecond, Exec: f2.Exec},
			{Seq: 2, Fn: f1, Arrival: 20 * time.Second, Exec: f1.Exec},
		}}
	g := NewGreedyMatch()
	p := platform.New(platform.Config{PoolCapacityMB: 1000, Evictor: g.Evictor()}, g)
	res := p.Run(w)
	if res.Metrics.ColdStarts() != 2 {
		t.Fatalf("cold starts = %d, want 2", res.Metrics.ColdStarts())
	}
	lv := res.Metrics.ByLevel()
	if lv[3] != 1 {
		t.Fatalf("ByLevel = %v, want one L3 reuse", lv)
	}
	// Third start is f1 on its own container: function init only.
	if got := res.Metrics.Samples()[2].Startup; got != f1.FunctionInit {
		t.Fatalf("third startup = %v, want %v", got, f1.FunctionInit)
	}
}

func TestCostGreedyAvoidsUselessWarmStart(t *testing.T) {
	// A function whose warm start at L1 costs more than its cold start:
	// cheap create, expensive language+runtime pulls and a big clean.
	// Cost-Greedy must cold-start; the paper's level-based Greedy-Match
	// takes the warm container regardless (its defining short-
	// sightedness).
	f1 := fn(1, "debian", "python", []string{"flask"}, 200*time.Millisecond, 100)
	f2 := fn(2, "debian", "node", []string{"express"}, 200*time.Millisecond, 100)
	f2.Create = 0
	f2.Clean = 10 * time.Second // cleaner more expensive than create
	w := seq([]*workload.Function{f1, f2}, 10*time.Second)
	g := NewCostGreedy()
	p := platform.New(platform.Config{PoolCapacityMB: 1000, Evictor: g.Evictor()}, g)
	res := p.Run(w)
	if res.Metrics.ColdStarts() != 2 {
		t.Fatalf("cold starts = %d, want 2 (warm start costlier than cold)", res.Metrics.ColdStarts())
	}

	gm := NewGreedyMatch()
	p2 := platform.New(platform.Config{PoolCapacityMB: 1000, Evictor: gm.Evictor()}, gm)
	res2 := p2.Run(w)
	if res2.Metrics.ColdStarts() != 1 {
		t.Fatalf("Greedy-Match cold starts = %d, want 1 (always reuses matches)", res2.Metrics.ColdStarts())
	}
}

func TestKeepAliveName(t *testing.T) {
	names := map[string]platform.Scheduler{
		"LRU": NewLRU(), "FaasCache": NewFaasCache(), "KeepAlive": NewKeepAlive(), "Greedy-Match": NewGreedyMatch(),
	}
	for want, s := range names {
		if got := s.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}

func TestKeepAliveDefaultTTL(t *testing.T) {
	if got := NewKeepAlive().Evictor().TTL(); got != 10*time.Minute {
		t.Fatalf("default TTL = %v, want 10m", got)
	}
}

// TestFig2GreedyVsOptimal reproduces the phenomenon of Figure 2: the
// best-effort greedy policy commits a container to an earlier function
// and thereby loses a much larger saving for a later one, while a
// workload-aware assignment achieves a lower total.
func TestFig2GreedyVsOptimal(t *testing.T) {
	// fML has a huge runtime (expensive to pull), fWeb a small one.
	fML := fn(2, "debian", "python", []string{"tensorflow"}, 8*time.Second, 100)
	fWeb := fn(3, "debian", "python", []string{"web2"}, 100*time.Millisecond, 100)

	// Warm the pool: C1 ran a web-ish function (runtime web1), then C2
	// ran fML (runtime tensorflow, most recently used). fWeb then
	// arrives and greedy ties between the two L2 candidates, taking the
	// most recently used — the tensorflow container — and repacking it,
	// which destroys the later fML invocation's near-free L3 reuse.
	fWeb1 := fn(4, "debian", "python", []string{"web1"}, 100*time.Millisecond, 100)
	w2 := seq([]*workload.Function{fWeb1, fML, fWeb, fML}, 20*time.Second)
	p2 := platform.New(platform.Config{PoolCapacityMB: 1000, Evictor: NewGreedyMatch().Evictor()}, NewGreedyMatch())
	res2 := p2.Run(w2)
	s2 := res2.Metrics.Samples()

	// Greedy repacked C1 (the tensorflow container) for fWeb, so the
	// final fML start pays the full tensorflow pull at L2 instead of a
	// near-free L3 reuse.
	greedyLastML := s2[3].Startup
	if greedyLastML < 8*time.Second {
		t.Fatalf("greedy final fML startup = %v, expected to pay the tensorflow pull", greedyLastML)
	}

	// The workload-aware assignment (fWeb -> C2) keeps C1 for fML.
	optTotal := optimalTotal(t, w2)
	if optTotal >= res2.Metrics.TotalStartup() {
		t.Fatalf("optimal total %v not better than greedy %v", optTotal, res2.Metrics.TotalStartup())
	}
}

// optimalTotal brute-forces all per-invocation choices (cold start or any
// matching idle container) over the workload and returns the minimal
// total startup latency. Exponential; test workloads are tiny.
func optimalTotal(t *testing.T, w workload.Workload) time.Duration {
	t.Helper()
	best := time.Duration(1<<62 - 1)
	var rec func(i int, total time.Duration, choices []int)
	n := len(w.Invocations)
	rec = func(i int, total time.Duration, choices []int) {
		if total >= best {
			return
		}
		if i == n {
			best = total
			return
		}
		// Choices: -1 (cold) or reuse slot of an earlier invocation's
		// container. Replay to evaluate via oracleScheduler.
		for c := -1; c < n; c++ {
			choices[i] = c
			tot, ok := replay(w, choices[:i+1])
			if ok {
				rec(i+1, tot, choices)
			}
		}
	}
	rec(0, 0, make([]int, n))
	return best
}

// replay executes the workload applying the given per-invocation choices
// (choice c >= 0 reuses the container created-or-last-used by invocation
// c). Returns the total startup so far and whether the plan is feasible.
func replay(w workload.Workload, choices []int) (time.Duration, bool) {
	or := &oracle{choices: choices, byInv: map[int]int{}}
	p := platform.New(platform.Config{PoolCapacityMB: 1 << 40, Evictor: NewGreedyMatch().Evictor()}, or)
	sub := workload.Workload{Name: w.Name, Functions: w.Functions,
		Invocations: w.Invocations[:len(choices)]}
	defer func() { recover() }()
	res := p.Run(sub)
	if or.infeasible {
		return 0, false
	}
	return res.Metrics.TotalStartup(), true
}

// oracle replays fixed choices.
type oracle struct {
	choices    []int
	byInv      map[int]int // invocation index -> container ID it ran on
	infeasible bool
}

func (o *oracle) Name() string { return "oracle" }
func (o *oracle) Schedule(env platform.Env, inv *workload.Invocation) int {
	ch := o.choices[inv.Seq]
	if ch < 0 {
		return platform.ColdStart
	}
	id, ok := o.byInv[ch]
	if !ok {
		o.infeasible = true
		return platform.ColdStart
	}
	c := env.Pool.Get(id)
	if c == nil {
		o.infeasible = true
		return platform.ColdStart
	}
	if core.Match(&inv.Fn.Image, c.Image) == core.NoMatch {
		o.infeasible = true
		return platform.ColdStart
	}
	return id
}

func (o *oracle) OnResult(env platform.Env, inv *workload.Invocation, res platform.Result) {
	o.byInv[inv.Seq] = res.ContainerID
}
