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

// sameFunction returns the ID of the most-recently-used idle container
// that last served this exact function, or platform.ColdStart.
//
// This is the reuse rule of today's clouds (Figure 1's "C" mode): a warm
// container serves only re-invocations of the same function.
func sameFunction(env platform.Env, inv *workload.Invocation) int {
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

// LRU keeps finished containers warm and reuses them for re-invocations
// of the same function; a full pool evicts the least-recently-used idle
// container.
type LRU struct{}

// NewLRU returns the LRU baseline scheduler.
func NewLRU() *LRU { return &LRU{} }

// Name implements platform.Scheduler.
func (*LRU) Name() string { return "LRU" }

// Evictor returns the pool eviction policy this scheduler is paired with.
func (*LRU) Evictor() pool.Evictor { return evict.NewLRU() }

// Schedule implements platform.Scheduler.
func (*LRU) Schedule(env platform.Env, inv *workload.Invocation) int {
	return sameFunction(env, inv)
}

// OnResult implements platform.Scheduler.
func (*LRU) OnResult(platform.Env, *workload.Invocation, platform.Result) {}

// FaasCache reuses same-function containers like LRU but evicts by the
// greedy-dual priority of Fuerst & Sharma (ASPLOS'21), weighing function
// frequency, startup cost and container size.
type FaasCache struct{}

// NewFaasCache returns the FaasCache baseline scheduler.
func NewFaasCache() *FaasCache { return &FaasCache{} }

// Name implements platform.Scheduler.
func (*FaasCache) Name() string { return "FaasCache" }

// Evictor returns the greedy-dual eviction policy.
func (*FaasCache) Evictor() pool.Evictor { return evict.NewFaasCache() }

// Schedule implements platform.Scheduler.
func (*FaasCache) Schedule(env platform.Env, inv *workload.Invocation) int {
	return sameFunction(env, inv)
}

// OnResult implements platform.Scheduler.
func (*FaasCache) OnResult(platform.Env, *workload.Invocation, platform.Result) {}

// KeepAlive mirrors the default warm-start mechanism of public clouds:
// same-function reuse, containers kept warm for a fixed time (the paper
// uses 10 minutes), keep-warm requests rejected when the pool is full.
type KeepAlive struct {
	// Alive is the keep-warm duration; zero defaults to 10 minutes.
	Alive time.Duration
}

// NewKeepAlive returns the KeepAlive baseline with the paper's window
// (evict.DefaultKeepAlive, 10 minutes).
func NewKeepAlive() *KeepAlive { return &KeepAlive{Alive: evict.DefaultKeepAlive} }

// Name implements platform.Scheduler.
func (*KeepAlive) Name() string { return "KeepAlive" }

// Evictor returns the TTL-based non-displacing eviction policy. A zero
// Alive falls back to evict.DefaultKeepAlive inside the policy itself.
func (k *KeepAlive) Evictor() pool.Evictor { return evict.KeepAlive{Alive: k.Alive} }

// Schedule implements platform.Scheduler.
func (*KeepAlive) Schedule(env platform.Env, inv *workload.Invocation) int {
	return sameFunction(env, inv)
}

// OnResult implements platform.Scheduler.
func (*KeepAlive) OnResult(platform.Env, *workload.Invocation, platform.Result) {}

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
		lv := core.Match(inv.Fn.Image, c.Image)
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
