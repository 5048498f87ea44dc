package experiments

import (
	"fmt"
	"time"

	"mlcr/internal/core"
	"mlcr/internal/image"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/report"
	"mlcr/internal/workload"
)

// Fig2Result contrasts the best-effort greedy policy (Policy1) with a
// workload-aware optimal assignment (Policy2) on the Figure 2 scenario.
type Fig2Result struct {
	GreedyTotal  time.Duration
	OptimalTotal time.Duration
	GreedyRows   []Fig2Row
}

// Fig2Row is one invocation's outcome under the greedy policy.
type Fig2Row struct {
	Seq     int
	Fn      string
	Cold    bool
	Startup time.Duration
}

// fig2Workload builds the scenario: two warm containers exist (one with
// an expensive ML runtime, one with a cheap web runtime); a web function
// then arrives, followed by the ML function. The greedy policy commits
// the ML container to the web function and pays the huge runtime pull
// again; the optimal plan keeps it intact.
func fig2Workload() workload.Workload {
	mk := func(id int, rt string, rtPullMB float64) *workload.Function {
		ps := []image.Package{
			{Name: "debian", Version: "11", Level: image.OS, SizeMB: 50, Pull: 2 * time.Second, Install: 250 * time.Millisecond},
			{Name: "python", Version: "3.9", Level: image.Language, SizeMB: 49, Pull: 1960 * time.Millisecond, Install: 245 * time.Millisecond},
			{Name: rt, Version: "1", Level: image.Runtime, SizeMB: rtPullMB,
				Pull:    time.Duration(rtPullMB * float64(40*time.Millisecond)),
				Install: time.Duration(rtPullMB * float64(5*time.Millisecond))},
		}
		return &workload.Function{
			ID: id, Name: rt, Image: image.NewImage(rt, ps...),
			Create: 300 * time.Millisecond, Clean: 60 * time.Millisecond,
			RuntimeInit: 300 * time.Millisecond, FunctionInit: 50 * time.Millisecond,
			Exec: 200 * time.Millisecond, MemoryMB: 256,
		}
	}
	fWeb1 := mk(1, "web1", 8)
	fML := mk(2, "ml", 480)
	fWeb2 := mk(3, "web2", 8)
	fns := []*workload.Function{fWeb1, fML, fWeb2}
	gap := 40 * time.Second
	order := []*workload.Function{fWeb1, fML, fWeb2, fML}
	invs := make([]workload.Invocation, len(order))
	for i, f := range order {
		invs[i] = workload.Invocation{Seq: i, Fn: f, Arrival: time.Duration(i+1) * gap, Exec: f.Exec}
	}
	return workload.Workload{Name: "fig2", Functions: fns, Invocations: invs}
}

// Fig2 runs the scenario under Greedy-Match and under an exhaustive
// optimal plan, returning both totals.
func Fig2() Fig2Result {
	w := fig2Workload()
	g := policy.NewGreedyMatch()
	gRes := platform.New(platform.Config{PoolCapacityMB: 4096, Evictor: g.Evictor()}, g).Run(w)

	res := Fig2Result{
		GreedyTotal:  gRes.Metrics.TotalStartup(),
		OptimalTotal: OptimalTotal(w, 4096),
	}
	for _, s := range gRes.Metrics.Samples() {
		res.GreedyRows = append(res.GreedyRows, Fig2Row{
			Seq: s.Seq, Fn: w.Invocations[s.Seq].Fn.Name, Cold: s.Cold, Startup: s.Startup,
		})
	}
	return res
}

// Table renders the comparison.
func (r Fig2Result) Table() *report.Table {
	t := &report.Table{
		Title:  "Fig 2 — best-effort greedy (Policy1) vs workload-aware optimal (Policy2)",
		Header: []string{"inv", "function", "start", "latency"},
	}
	for _, row := range r.GreedyRows {
		kind := "warm"
		if row.Cold {
			kind = "cold"
		}
		t.AddRow(row.Seq, row.Fn, kind, row.Startup)
	}
	t.Caption = fmt.Sprintf("greedy total %s vs optimal total %s (%.0f%% worse)",
		report.FmtDur(r.GreedyTotal), report.FmtDur(r.OptimalTotal),
		100*(float64(r.GreedyTotal)-float64(r.OptimalTotal))/float64(r.OptimalTotal))
	return t
}

// OptimalTotal exhaustively searches per-invocation choices (cold start
// or reuse of any live prior container) and returns the minimum total
// startup latency. Exponential in the invocation count — use only on
// example-sized workloads.
func OptimalTotal(w workload.Workload, poolMB float64) time.Duration {
	n := len(w.Invocations)
	best := time.Duration(1<<62 - 1)
	choices := make([]int, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if total, ok := replayChoices(w, choices, poolMB); ok && total < best {
				best = total
			}
			return
		}
		for c := -1; c < i; c++ {
			choices[i] = c
			// Prune: partial plans already worse than best are dead ends.
			if total, ok := replayChoices(w, choices[:i+1], poolMB); ok && total < best {
				rec(i + 1)
			}
		}
	}
	rec(0)
	return best
}

// replayChoices evaluates a (partial) plan; choice c >= 0 means "reuse the
// container that served invocation c". Returns (total, feasible).
func replayChoices(w workload.Workload, choices []int, poolMB float64) (time.Duration, bool) {
	or := &fixedPlan{choices: choices, byInv: map[int]int{}}
	sub := workload.Workload{Name: w.Name, Functions: w.Functions, Invocations: w.Invocations[:len(choices)]}
	g := policy.NewGreedyMatch()
	p := platform.New(platform.Config{PoolCapacityMB: poolMB, Evictor: g.Evictor()}, or)
	res := p.Run(sub)
	if or.infeasible {
		return 0, false
	}
	return res.Metrics.TotalStartup(), true
}

// fixedPlan replays a fixed choice list, flagging infeasible plans
// (container busy, evicted or mismatched) instead of panicking.
type fixedPlan struct {
	choices    []int
	byInv      map[int]int
	infeasible bool
}

func (f *fixedPlan) Name() string { return "fixed-plan" }

func (f *fixedPlan) Schedule(env platform.Env, inv *workload.Invocation) int {
	ch := f.choices[inv.Seq]
	if ch < 0 {
		return platform.ColdStart
	}
	id, ok := f.byInv[ch]
	if !ok {
		f.infeasible = true
		return platform.ColdStart
	}
	c := env.Pool.Get(id)
	if c == nil {
		f.infeasible = true
		return platform.ColdStart
	}
	if core.Match(&inv.Fn.Image, c.Image) == core.NoMatch {
		f.infeasible = true
		return platform.ColdStart
	}
	return id
}

func (f *fixedPlan) OnResult(_ platform.Env, inv *workload.Invocation, res platform.Result) {
	f.byInv[inv.Seq] = res.ContainerID
}
