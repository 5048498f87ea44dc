// Package registry models the code registry that cold and partial warm
// starts pull packages from, plus an optional node-local layer cache.
// Section II-A observes that code pulling takes 47–89% of cold-start
// latency and asks "how to efficiently cache the downloaded codes and
// runtime with limited cloud resources"; this package lets experiments
// quantify how a content-addressed package cache on the worker interacts
// with multi-level container reuse.
//
// The cache is LRU by bytes: a hit serves the package at local-disk
// speed instead of registry speed. Install time is unaffected (the
// package must still be unpacked into the container).
package registry

import (
	"fmt"
	"time"

	"mlcr/internal/image"
)

// Cache is a node-local package cache with byte-capacity LRU eviction.
type Cache struct {
	capacityMB float64
	usedMB     float64
	// entries maps package key to its LRU list element.
	entries map[string]*entry
	// head/tail of a doubly linked LRU list; head = most recent.
	head, tail *entry

	hits, misses int
	// localRate is the speedup of a cache hit versus a registry pull:
	// pull time is divided by this factor (default 8, i.e. local disk
	// ~8× faster than the registry path).
	localRate float64
}

type entry struct {
	key        string
	sizeMB     float64
	prev, next *entry
}

// NewCache creates a cache with the given capacity in MB (<= 0 disables
// caching entirely: every pull goes to the registry).
func NewCache(capacityMB float64) *Cache {
	return &Cache{
		capacityMB: capacityMB,
		entries:    make(map[string]*entry),
		localRate:  8,
	}
}

// SetLocalRate overrides the hit-speedup factor (must be >= 1).
func (c *Cache) SetLocalRate(r float64) {
	if r < 1 {
		panic(fmt.Sprintf("registry: local rate %v < 1", r))
	}
	c.localRate = r
}

// Stats reports cache effectiveness.
type Stats struct {
	Hits, Misses int
	UsedMB       float64
}

// Stats returns accumulated counters.
func (c *Cache) Stats() Stats { return Stats{Hits: c.hits, Misses: c.misses, UsedMB: c.usedMB} }

// Pull returns the time to fetch one package, updating the cache: a hit
// costs pull/localRate, a miss costs the full pull and inserts the
// package (evicting LRU entries as needed). Packages larger than the
// whole cache are fetched but never cached.
func (c *Cache) Pull(p image.Package) time.Duration {
	if c.capacityMB <= 0 {
		c.misses++
		return p.Pull
	}
	key := p.Key()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.moveToFront(e)
		return time.Duration(float64(p.Pull) / c.localRate)
	}
	c.misses++
	if p.SizeMB <= c.capacityMB {
		for c.usedMB+p.SizeMB > c.capacityMB && c.tail != nil {
			c.evict(c.tail)
		}
		e := &entry{key: key, sizeMB: p.SizeMB}
		c.entries[key] = e
		c.pushFront(e)
		c.usedMB += p.SizeMB
	}
	return p.Pull
}

// PullLevel fetches every package of one image level and returns the
// total pull time.
func (c *Cache) PullLevel(im image.Image, l image.Level) time.Duration {
	var d time.Duration
	for _, p := range im.AtLevel(l) {
		d += c.Pull(p)
	}
	return d
}

// Contains reports whether a package is currently cached.
func (c *Cache) Contains(p image.Package) bool {
	_, ok := c.entries[p.Key()]
	return ok
}

// Len returns the number of cached packages.
func (c *Cache) Len() int { return len(c.entries) }

func (c *Cache) pushFront(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) moveToFront(e *entry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *Cache) evict(e *entry) {
	c.unlink(e)
	delete(c.entries, e.key)
	c.usedMB -= e.sizeMB
	if c.usedMB < 1e-9 {
		c.usedMB = 0
	}
}
