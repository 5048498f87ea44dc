// Package policy implements the paper's comparison schedulers
// (Section VI-A): LRU, FaasCache, KeepAlive — which reuse containers only
// for the exact function that created them — and Greedy-Match, which
// performs multi-level matching but picks the instantaneously best
// container greedily.
package policy

import (
	"time"

	"mlcr/internal/container"
	"mlcr/internal/core"
	"mlcr/internal/evict"
	"mlcr/internal/platform"
	"mlcr/internal/pool"
	"mlcr/internal/workload"
)

// SameFunction reuses a warm container only for re-invocations of the
// exact function that created it, picking the most-recently-used one:
// the reuse rule of today's clouds (Figure 1's "C" mode). The paper's
// LRU, FaasCache and KeepAlive baselines are this one rule under
// different names and eviction pairings; the bare rule, Same-Function,
// is what the scheduler × evictor grid crosses with every evictor.
type SameFunction struct {
	name    string
	evictor string // evict registry name of the default pairing
}

// NewSameFunction returns the bare same-function scheduler (default LRU
// eviction, like the paper's LRU baseline).
func NewSameFunction() *SameFunction { return &SameFunction{"Same-Function", "lru"} }

// NewLRU returns the LRU baseline: a full pool evicts the
// least-recently-used idle container.
func NewLRU() *SameFunction { return &SameFunction{"LRU", "lru"} }

// NewFaasCache returns the FaasCache baseline: eviction by the
// greedy-dual priority of Fuerst & Sharma (ASPLOS'21), weighing
// function frequency, startup cost and container size.
func NewFaasCache() *SameFunction { return &SameFunction{"FaasCache", "faascache"} }

// NewKeepAlive returns the KeepAlive baseline, the default warm-start
// mechanism of public clouds: containers kept warm for
// evict.DefaultKeepAlive (the paper's 10 minutes), keep-warm requests
// rejected when the pool is full.
func NewKeepAlive() *SameFunction { return &SameFunction{"KeepAlive", "keepalive"} }

// Name implements platform.Scheduler.
func (s *SameFunction) Name() string { return s.name }

// Evictor returns a fresh instance of the paired eviction policy.
func (s *SameFunction) Evictor() pool.Evictor { return evict.MustNew(s.evictor, 0) }

// Schedule implements platform.Scheduler.
func (*SameFunction) Schedule(env platform.Env, inv *workload.Invocation) int {
	best := platform.ColdStart
	var bestUsed time.Duration = -1
	env.Pool.RangeIdle(func(c *container.Container) bool {
		if c.FnID == inv.Fn.ID && c.LastUsedAt > bestUsed {
			best, bestUsed = c.ID, c.LastUsedAt
		}
		return true
	})
	return best
}

// OnResult implements platform.Scheduler.
func (*SameFunction) OnResult(platform.Env, *workload.Invocation, platform.Result) {}

// GreedyMatch adopts multi-level container reuse like MLCR but commits to
// the warm container with the best *matching result* according to Table I
// for the current invocation only — the best-effort Policy1 of Figure 2
// and the paper's Greedy-Match comparison. Ties within a match level
// break to the most-recently-used container, then the lowest ID. Idle
// containers are evicted with LRU, as in the paper.
//
// Matching purely by level is deliberately short-sighted (it is the
// paper's definition): among several full matches it may repack a
// different function's container (paying the cleaner) while the
// function's own container sits idle, and it will burn a deep-match
// container another function would soon need — the behaviour Figure 9
// illustrates and MLCR learns to avoid. CostGreedy is the cost-aware
// variant, used in the ablation benchmarks.
type GreedyMatch struct{}

// NewGreedyMatch returns the Greedy-Match comparison scheduler.
func NewGreedyMatch() *GreedyMatch { return &GreedyMatch{} }

// Name implements platform.Scheduler.
func (*GreedyMatch) Name() string { return "Greedy-Match" }

// Evictor returns the pool eviction policy this scheduler is paired with.
func (*GreedyMatch) Evictor() pool.Evictor { return evict.NewLRU() }

// Schedule implements platform.Scheduler.
func (*GreedyMatch) Schedule(env platform.Env, inv *workload.Invocation) int {
	best := platform.ColdStart
	bestLv := core.NoMatch
	var bestUsed time.Duration = -1
	env.Pool.RangeIdle(func(c *container.Container) bool {
		lv := core.Match(&inv.Fn.Image, c.Image)
		if lv == core.NoMatch {
			return true
		}
		if lv > bestLv || (lv == bestLv && (c.LastUsedAt > bestUsed || (c.LastUsedAt == bestUsed && c.ID < best))) {
			best, bestLv, bestUsed = c.ID, lv, c.LastUsedAt
		}
		return true
	})
	return best
}

// OnResult implements platform.Scheduler.
func (*GreedyMatch) OnResult(platform.Env, *workload.Invocation, platform.Result) {}

// CostGreedy is the cost-aware refinement of Greedy-Match used by the
// ablation benchmarks (and as MLCR's fallback action): it estimates the
// actual startup time of every matching container — which accounts for
// the cleaner overhead of cross-function reuse — picks the cheapest, and
// falls back to a cold start when no warm option beats it.
type CostGreedy struct{}

// NewCostGreedy returns the cost-aware greedy scheduler.
func NewCostGreedy() *CostGreedy { return &CostGreedy{} }

// Name implements platform.Scheduler.
func (*CostGreedy) Name() string { return "Cost-Greedy" }

// Evictor returns the pool eviction policy this scheduler is paired with.
func (*CostGreedy) Evictor() pool.Evictor { return evict.NewLRU() }

// Schedule implements platform.Scheduler.
func (*CostGreedy) Schedule(env platform.Env, inv *workload.Invocation) int {
	best := platform.ColdStart
	var bestCost time.Duration
	var bestUsed time.Duration = -1
	env.Pool.RangeIdle(func(c *container.Container) bool {
		est, lv := container.EstimateFor(inv.Fn, c)
		if lv == core.NoMatch {
			return true
		}
		cost := est.Total()
		if best == platform.ColdStart || cost < bestCost ||
			(cost == bestCost && (c.LastUsedAt > bestUsed || (c.LastUsedAt == bestUsed && c.ID < best))) {
			best, bestCost, bestUsed = c.ID, cost, c.LastUsedAt
		}
		return true
	})
	if best != platform.ColdStart && bestCost >= container.Estimate(inv.Fn, core.NoMatch, false).Total() {
		// A warm start that is no cheaper than a cold start is pointless.
		return platform.ColdStart
	}
	return best
}

// OnResult implements platform.Scheduler.
func (*CostGreedy) OnResult(platform.Env, *workload.Invocation, platform.Result) {}
