// Package evict defines the event-driven eviction-policy contract of the
// warm-container pool and the four policies implementing it: the
// paper's three baselines (LRU, FaasCache greedy-dual, fixed KeepAlive)
// plus the clean/dirty-aware policy of Fig 1, which prefers victims
// that need no volume swap (Section VI-A; DESIGN.md §12).
//
// Unlike the pre-refactor Evictor.Victim(idle []…) contract, a Policy
// never sees the idle set. The pool narrates membership changes through
// OnAdd/OnUse/OnRemove/OnTick and each displacing policy keeps its own
// intrusive victim heap, so PickVictim is O(1) or O(log n) and the
// whole callback surface is allocation-free in steady state (pinned by
// TestPickVictimZeroAllocs). Policies key the heap through
// Container.PolicyCookie, an int slot the pool reserves for whichever
// policy currently tracks the container; only this package touches it,
// and a foreign write corrupts a heap that the every-policy property
// harness (evictionScript) replays.
//
// Determinism contract: policies hold only virtual-time state and no
// RNG. Tie-breaks must be resolved by stable container fields —
// (LastUsedAt, ID) or insertion sequence — never by map iteration or
// pointer order. The package is in mlcr-vet's deterministic scope:
// wall-clock and global math/rand calls are build-gate errors.
package evict

import (
	"time"

	"mlcr/internal/container"
)

// DefaultKeepAlive is the fixed keep-warm duration public clouds
// document (the paper evaluates 10 minutes). KeepAlive-family policies
// with a zero Alive field fall back to it.
const DefaultKeepAlive = 10 * time.Minute

// Reasons passed to OnRemove and the pool's observability hook.
const (
	// ReasonCapacity: displaced by PickVictim to make room.
	ReasonCapacity = "capacity"
	// ReasonExpired: exceeded the idle TTL.
	ReasonExpired = "expired"
	// ReasonRejected: a keep-warm request refused by a full pool. The
	// rejected container never entered the pool, so no Policy callback
	// fires with this reason; it exists for the pool-level hook.
	ReasonRejected = "rejected"
	// ReasonOversize: the container alone exceeds the pool capacity.
	// Like ReasonRejected it never reaches a Policy callback.
	ReasonOversize = "oversize"
)

// Policy is the event-driven eviction contract. The pool owns
// membership; the policy mirrors it through the On* callbacks and
// answers PickVictim from its own bookkeeping.
//
// Event protocol, in pool order:
//
//	OnAdd(c, cost, now)  — c was inserted (after the pool indexed it)
//	OnUse(c, now)        — c left the pool to serve an invocation
//	OnRemove(c, reason)  — c was killed (ReasonCapacity or ReasonExpired)
//	OnTick(now)          — virtual time advanced (start of every Expire)
//	PickVictim(now)      — the pool is full: name the next container to
//	                       kill, or nil to refuse (the offer is rejected)
//
// Every container passed to PickVictim's caller is subsequently removed
// via OnRemove(c, ReasonCapacity), so policies drop bookkeeping in
// OnRemove/OnUse only. PickVictim must return a container previously
// seen by OnAdd and not yet released — the pool panics otherwise.
type Policy interface {
	// Name identifies the policy for reports and registry lookup.
	Name() string
	// Admit reports whether a new container may enter a full pool by
	// evicting others. KeepAlive-family policies return false: they
	// reject keep-warm requests when the pool is full.
	Admit() bool
	// TTL is the maximum idle lifetime; zero means unlimited.
	TTL() time.Duration
	// OnAdd records a container entering the pool. startupCost is the
	// startup latency the warm container saved its last invocation,
	// used by cost-aware policies; now is the current virtual time.
	OnAdd(c *container.Container, startupCost time.Duration, now time.Duration)
	// OnUse records a container leaving the pool for reuse.
	OnUse(c *container.Container, now time.Duration)
	// OnRemove records a container killed by the pool with one of the
	// Reason* constants (capacity or expired).
	OnRemove(c *container.Container, reason string)
	// OnTick observes virtual time advancing; no policy reads it.
	OnTick(now time.Duration)
	// PickVictim returns the container the policy sacrifices next, or
	// nil to refuse eviction. O(1)/O(log n); must not allocate.
	PickVictim(now time.Duration) *container.Container
}

// PerContainerTTL once let a policy expire each container on its own
// schedule. No policy implements it and the pool no longer consults it:
// Expire uses the single TTL. It remains only because the benchmark's
// tracing wrapper names it, and it leaves with OnTick in the next
// change to the benchmark.
type PerContainerTTL interface {
	TTLFor(c *container.Container) time.Duration
}
