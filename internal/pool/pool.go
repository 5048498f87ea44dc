// Package pool implements the fix-sized warm-container resource pool.
// Eviction is delegated to an event-driven policy from internal/evict
// (LRU, FaasCache greedy-dual, KeepAlive and clean-first — Section
// VI-A, DESIGN.md §12): the pool narrates membership changes
// through the policy's OnAdd/OnUse/OnRemove/OnTick callbacks and asks
// PickVictim when full, so victim selection is O(1)/O(log n) instead of
// scanning the idle set.
//
// The pool holds idle containers only; a container leaves the pool for the
// duration of every invocation it serves and is offered back on
// completion. Capacity is accounted in megabytes of container memory.
package pool

import (
	"fmt"
	"time"

	"mlcr/internal/container"
	"mlcr/internal/evict"
	"mlcr/internal/image"
	"mlcr/internal/obs/perf"
)

// Evictor is the pool's eviction-policy contract, defined in
// internal/evict. The alias keeps the historical pool.Evictor name
// working across schedulers, experiments and CLIs.
type Evictor = evict.Policy

// Stats counts pool-level events for the experiment reports (Fig 10).
type Stats struct {
	// Adds counts containers accepted into the pool.
	Adds int
	// Evictions counts containers displaced to make room.
	Evictions int
	// Rejections counts keep-warm requests refused (KeepAlive full),
	// Oversize ones included.
	Rejections int
	// Oversize counts the Rejections of a container larger than the
	// whole pool.
	Oversize int
	// Expirations counts TTL expiries.
	Expirations int
	// PeakUsedMB is the highest memory the pool ever held.
	PeakUsedMB float64
}

// entry is a pool slot: a node of the intrusive insertion-ordered list
// plus the container's match-index keys and bucket positions. Entries are
// recycled through a freelist so steady-state Add/Take/remove cycles do
// not allocate. Index keys are interned image.LevelIDs — dense
// integers — so bucket lookup hashes and compares machine words instead
// of canonical key strings.
type entry struct {
	c          *container.Container
	prev, next *entry

	k1 image.LevelID    // L1 level-key ID
	k2 [2]image.LevelID // L1+L2 level-key IDs
	k3 [3]image.LevelID // L1+L2+L3 level-key IDs
	bi [3]int           // position within the L1/L2/L3 bucket slices
}

// Pool is a fix-sized set of idle warm containers.
type Pool struct {
	capacityMB float64 // <= 0 means unlimited
	evictor    Evictor
	byID       map[int]*entry
	head, tail *entry // intrusive doubly-linked list in insertion order
	count      int
	free       *entry // entry freelist (chained through next)
	usedMB     float64
	stats      Stats

	// Multi-level match index: containers bucketed by their level-key
	// prefixes, so candidate enumeration touches only containers sharing
	// at least the OS level with the function instead of the whole pool.
	// Buckets are keyed by interned image.LevelIDs.
	// Emptied buckets keep their (zero-length, capacity-retaining) slices
	// so steady-state churn does not allocate.
	l1 map[image.LevelID][]*entry
	l2 map[[2]image.LevelID][]*entry
	l3 map[[3]image.LevelID][]*entry

	// OnEvict, when non-nil, observes every container the pool kills —
	// evictions, TTL expiries and rejected keep-warm offers — with one
	// of the evict.Reason* constants and the current virtual time. It is
	// the pool-level observability hook; a nil hook costs one branch.
	OnEvict func(c *container.Container, reason string, now time.Duration)

	// Prof, when non-nil, times the pool's hot phases (index scans,
	// eviction victim selection) into the run's phase profiler. Set by
	// the platform's observability wiring; a nil profiler costs one
	// branch per scope (see perf.Span).
	Prof *perf.Profiler
}

// New creates a pool with the given capacity in MB (<= 0 for unlimited)
// and eviction policy.
func New(capacityMB float64, ev Evictor) *Pool {
	if ev == nil {
		panic("pool: nil evictor")
	}
	return &Pool{
		capacityMB: capacityMB,
		evictor:    ev,
		byID:       make(map[int]*entry),
		l1:         make(map[image.LevelID][]*entry),
		l2:         make(map[[2]image.LevelID][]*entry),
		l3:         make(map[[3]image.LevelID][]*entry),
	}
}

// CapacityMB returns the configured capacity (<= 0 means unlimited).
func (p *Pool) CapacityMB() float64 { return p.capacityMB }

// UsedMB returns the memory currently held by idle containers.
func (p *Pool) UsedMB() float64 { return p.usedMB }

// Len returns the number of idle containers in the pool.
func (p *Pool) Len() int { return p.count }

// Stats returns accumulated pool statistics.
func (p *Pool) Stats() Stats { return p.stats }

// Evictor exposes the configured policy.
func (p *Pool) Evictor() Evictor { return p.evictor }

// RangeIdle calls f for each idle container in deterministic (insertion)
// order until f returns false. It walks the intrusive list directly —
// no slice is built — so scan loops stay allocation-free. f must not
// mutate the pool.
func (p *Pool) RangeIdle(f func(c *container.Container) bool) {
	for e := p.head; e != nil; e = e.next {
		if !f(e.c) {
			return
		}
	}
}

// Get returns the pooled container with the given ID, or nil.
func (p *Pool) Get(id int) *container.Container {
	if e, ok := p.byID[id]; ok {
		return e.c
	}
	return nil
}

// Expire removes idle containers whose idle time exceeds the evictor's
// TTL and returns them. Call with the current virtual time before making
// scheduling decisions; the call delivers the policy's OnTick even when
// no TTL is configured.
func (p *Pool) Expire(now time.Duration) []*container.Container {
	p.evictor.OnTick(now)
	ttl := p.evictor.TTL()
	if ttl <= 0 {
		return nil
	}
	// Walk the intrusive list directly (no per-call snapshot copy),
	// capturing each successor before a removal unlinks the entry.
	var out []*container.Container
	for e := p.head; e != nil; {
		next := e.next
		if c := e.c; c.IdleFor(now) > ttl {
			p.remove(e)
			c.Kill()
			p.evictor.OnRemove(c, evict.ReasonExpired)
			p.stats.Expirations++
			if p.OnEvict != nil {
				p.OnEvict(c, evict.ReasonExpired, now)
			}
			out = append(out, c)
		}
		e = next
	}
	return out
}

// Add offers a finished (idle) container to the pool, evicting idle
// containers per the policy if needed. It returns false when the container
// was rejected or could not fit even after evictions (the container is
// killed in that case). startupCost is the cost the container saved its
// last invocation, used by cost-aware evictors.
func (p *Pool) Add(c *container.Container, startupCost time.Duration, now time.Duration) bool {
	if c.State != container.Idle {
		panic(fmt.Sprintf("pool: Add container %d in state %v", c.ID, c.State))
	}
	if _, dup := p.byID[c.ID]; dup {
		panic(fmt.Sprintf("pool: container %d already pooled", c.ID))
	}
	if p.capacityMB > 0 && c.MemoryMB > p.capacityMB {
		c.Kill()
		p.stats.Rejections++
		p.stats.Oversize++
		if p.OnEvict != nil {
			p.OnEvict(c, evict.ReasonOversize, now)
		}
		return false
	}
	for p.capacityMB > 0 && p.usedMB+c.MemoryMB > p.capacityMB {
		if !p.evictor.Admit() {
			c.Kill()
			p.stats.Rejections++
			if p.OnEvict != nil {
				p.OnEvict(c, evict.ReasonRejected, now)
			}
			return false
		}
		sp := p.Prof.Start(perf.PhasePoolEvict)
		victim := p.evictor.PickVictim(now)
		sp.End()
		if victim == nil {
			c.Kill()
			p.stats.Rejections++
			if p.OnEvict != nil {
				p.OnEvict(c, evict.ReasonRejected, now)
			}
			return false
		}
		ve, ok := p.byID[victim.ID]
		if !ok || ve.c != victim {
			panic(fmt.Sprintf("pool: policy %s picked unpooled victim %d", p.evictor.Name(), victim.ID))
		}
		p.remove(ve)
		victim.Kill()
		p.evictor.OnRemove(victim, evict.ReasonCapacity)
		p.stats.Evictions++
		if p.OnEvict != nil {
			p.OnEvict(victim, evict.ReasonCapacity, now)
		}
	}
	e := p.newEntry(c)
	p.byID[c.ID] = e
	p.listPushBack(e)
	p.indexAdd(e)
	p.count++
	p.usedMB += c.MemoryMB
	p.stats.Adds++
	if p.usedMB > p.stats.PeakUsedMB {
		p.stats.PeakUsedMB = p.usedMB
	}
	p.evictor.OnAdd(c, startupCost, now)
	return true
}

// Take claims an idle container for reuse, removing it from the pool.
// It panics if the container is not pooled (a scheduler bug).
func (p *Pool) Take(id int, now time.Duration) *container.Container {
	e, ok := p.byID[id]
	if !ok {
		panic(fmt.Sprintf("pool: Take of unpooled container %d", id))
	}
	c := e.c
	p.remove(e)
	p.evictor.OnUse(c, now)
	return c
}

// remove unlinks an entry from the map, the insertion-order list and the
// match index, and recycles it onto the freelist. O(1).
func (p *Pool) remove(e *entry) {
	c := e.c
	delete(p.byID, c.ID)
	p.listRemove(e)
	p.indexRemove(e)
	p.count--
	p.usedMB -= c.MemoryMB
	if p.usedMB < 1e-9 {
		p.usedMB = 0
	}
	p.freeEntry(e)
}

// newEntry pops the freelist or allocates, and fills the index keys.
func (p *Pool) newEntry(c *container.Container) *entry {
	e := p.free
	if e != nil {
		p.free = e.next
		*e = entry{}
	} else {
		e = &entry{}
	}
	e.c = c
	ids := c.Image.LevelIDs()
	e.k1 = ids[0]
	e.k2 = [2]image.LevelID{ids[0], ids[1]}
	e.k3 = ids
	return e
}

// freeEntry clears an entry (dropping its container and key references)
// and pushes it onto the freelist.
func (p *Pool) freeEntry(e *entry) {
	*e = entry{}
	e.next = p.free
	p.free = e
}

func (p *Pool) listPushBack(e *entry) {
	e.prev = p.tail
	e.next = nil
	if p.tail != nil {
		p.tail.next = e
	} else {
		p.head = e
	}
	p.tail = e
}

func (p *Pool) listRemove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		p.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		p.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
