package policy

import (
	"fmt"
	"math/rand"
	"time"

	"mlcr/internal/container"
	"mlcr/internal/core"
	"mlcr/internal/evict"
	"mlcr/internal/platform"
	"mlcr/internal/pool"
	"mlcr/internal/workload"
)

// TabularQ is a classical (non-deep) Q-learning scheduler, the kind of
// reinforcement learner the paper's related work applies to cold starts
// (Vahidinia et al.) and the natural ablation between heuristics and the
// DQN: the state is discretized to (function ID, best available match
// level, pool-pressure bucket), the actions are "take the best-matching
// container" or "cold start", and learning happens online from the same
// r = −startup reward.
//
// With a coarse table the learner cannot see which *specific* container
// it takes (the DQN's per-slot features), so it captures when reuse pays
// off per function but not the Figure-2 container-preservation behaviour.
type TabularQ struct {
	// Alpha is the learning rate (default 0.1).
	Alpha float64
	// Gamma is the discount factor (default 0.9).
	Gamma float64
	// Epsilon is the online exploration rate (default 0.05).
	Epsilon float64

	q   map[tabState][2]float64
	rng *rand.Rand

	pending struct {
		state  tabState
		action int
		reward float64
		have   bool
	}
}

// tabState is the discretized state.
type tabState struct {
	fnID     int
	level    core.MatchLevel
	pressure int // 0..3 quartile of pool fullness
}

// NewTabularQ returns a tabular Q-learning scheduler.
func NewTabularQ(seed int64) *TabularQ {
	return &TabularQ{
		Alpha:   0.1,
		Gamma:   0.9,
		Epsilon: 0.05,
		q:       make(map[tabState][2]float64),
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// Name implements platform.Scheduler.
func (t *TabularQ) Name() string { return "Tabular-Q" }

// Evictor pairs the scheduler with LRU eviction like MLCR.
func (t *TabularQ) Evictor() pool.Evictor { return evict.NewLRU() }

// States returns the number of distinct states visited.
func (t *TabularQ) States() int { return len(t.q) }

func pressureBucket(env platform.Env) int {
	cap := env.Pool.CapacityMB()
	if cap <= 0 {
		return 0
	}
	frac := env.Pool.UsedMB() / cap
	switch {
	case frac < 0.25:
		return 0
	case frac < 0.5:
		return 1
	case frac < 0.75:
		return 2
	default:
		return 3
	}
}

// bestCandidate returns the cost-cheapest matching container and level.
func bestCandidate(env platform.Env, inv *workload.Invocation) (int, core.MatchLevel) {
	best, bestLv := platform.ColdStart, core.NoMatch
	var bestCost time.Duration
	env.Pool.RangeIdle(func(c *container.Container) bool {
		est, lv := container.EstimateFor(inv.Fn, c)
		if lv == core.NoMatch {
			return true
		}
		if best == platform.ColdStart || est.Total() < bestCost {
			best, bestLv, bestCost = c.ID, lv, est.Total()
		}
		return true
	})
	if best != platform.ColdStart &&
		bestCost >= container.Estimate(inv.Fn, core.NoMatch, false).Total() {
		return platform.ColdStart, core.NoMatch
	}
	return best, bestLv
}

// Schedule implements platform.Scheduler: ε-greedy over the two-action
// table, finalizing the previous step's TD update first.
func (t *TabularQ) Schedule(env platform.Env, inv *workload.Invocation) int {
	candidate, lv := bestCandidate(env, inv)
	state := tabState{fnID: inv.Fn.ID, level: lv, pressure: pressureBucket(env)}

	if t.pending.have {
		t.update(t.pending.state, t.pending.action, t.pending.reward, state)
	}

	var action int
	if t.rng.Float64() < t.Epsilon {
		action = t.rng.Intn(2)
	} else {
		qs := t.q[state]
		if qs[1] > qs[0] {
			action = 1
		}
	}
	if candidate == platform.ColdStart {
		action = 0 // no warm option: the only legal action is cold
	}
	t.pending.state = state
	t.pending.action = action
	t.pending.have = true

	if action == 1 {
		return candidate
	}
	return platform.ColdStart
}

// OnResult implements platform.Scheduler.
func (t *TabularQ) OnResult(_ platform.Env, _ *workload.Invocation, res platform.Result) {
	if !t.pending.have {
		return
	}
	t.pending.reward = -res.Startup.Total().Seconds()
}

// update applies the tabular TD(0) rule.
func (t *TabularQ) update(s tabState, a int, r float64, next tabState) {
	qs := t.q[s]
	nq := t.q[next]
	maxNext := nq[0]
	if nq[1] > maxNext {
		maxNext = nq[1]
	}
	qs[a] += t.Alpha * (r + t.Gamma*maxNext - qs[a])
	t.q[s] = qs
}

// String summarizes the learned table (for debugging).
func (t *TabularQ) String() string {
	return fmt.Sprintf("TabularQ{states: %d, α=%.2f, γ=%.2f, ε=%.2f}", len(t.q), t.Alpha, t.Gamma, t.Epsilon)
}
