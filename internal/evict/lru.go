package evict

import (
	"time"

	"mlcr/internal/container"
)

// LRU evicts the least-recently-used idle container. It is the eviction
// policy used by MLCR and Greedy-Match in the paper. Ties on LastUsedAt
// break by pool-insertion order (a monotone add sequence), which is
// bit-identical to the pre-refactor strict-minimum scan over the
// insertion-ordered idle list.
type LRU struct {
	h   vheap
	seq int64
}

// NewLRU returns an initialized LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements Policy.
func (*LRU) Name() string { return "lru" }

// Admit implements Policy: LRU always displaces old containers.
func (*LRU) Admit() bool { return true }

// TTL implements Policy: no idle-time limit.
func (*LRU) TTL() time.Duration { return 0 }

// OnAdd implements Policy: keys the container by (LastUsedAt, addSeq).
func (l *LRU) OnAdd(c *container.Container, _ time.Duration, _ time.Duration) {
	l.seq++
	l.h.push(c, 0, int64(c.LastUsedAt), l.seq)
}

// OnUse implements Policy.
func (l *LRU) OnUse(c *container.Container, _ time.Duration) { l.h.remove(c) }

// OnRemove implements Policy.
func (l *LRU) OnRemove(c *container.Container, _ string) { l.h.remove(c) }

// OnTick implements Policy (time-independent).
func (*LRU) OnTick(time.Duration) {}

// PickVictim implements Policy: the minimum (LastUsedAt, addSeq) key.
func (l *LRU) PickVictim(time.Duration) *container.Container { return l.h.min() }
