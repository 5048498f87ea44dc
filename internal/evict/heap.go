package evict

import "mlcr/internal/container"

// vitem is one victim-heap element: the container plus its eviction key
// (f, a, b), compared lexicographically with the minimum evicted first.
// Policies encode their ordering into the three fields at push time —
// e.g. LRU uses (0, LastUsedAt, addSeq), FaasCache (priority, ID, 0) —
// so one heap implementation serves every displacing policy.
type vitem struct {
	c    *container.Container
	f    float64
	a, b int64
}

func (x vitem) less(y vitem) bool {
	if x.f != y.f {
		return x.f < y.f
	}
	if x.a != y.a {
		return x.a < y.a
	}
	return x.b < y.b
}

// vheap is a min-heap of vitems with O(1) membership lookup: each
// element's heap index is mirrored into its container's PolicyCookie,
// so remove-by-container needs no map. The backing slice is reused
// across push/pop cycles, making steady-state churn allocation-free.
type vheap struct {
	items []vitem
}

func (h *vheap) len() int { return len(h.items) }

// min returns the root container without removing it, or nil when empty.
func (h *vheap) min() *container.Container {
	if len(h.items) == 0 {
		return nil
	}
	return h.items[0].c
}

// minItem returns the root element; call only when non-empty.
func (h *vheap) minItem() vitem { return h.items[0] }

// push inserts c with key (f, a, b) and records its index in
// c.PolicyCookie.
func (h *vheap) push(c *container.Container, f float64, a, b int64) {
	h.items = append(h.items, vitem{c: c, f: f, a: a, b: b})
	i := len(h.items) - 1
	c.PolicyCookie = i
	h.up(i)
}

// remove drops c from the heap via its cookie. It returns false when c
// is not tracked (cookie out of range or pointing at another element),
// which keeps policies robust against double-removal.
func (h *vheap) remove(c *container.Container) bool {
	i := c.PolicyCookie
	if i < 0 || i >= len(h.items) || h.items[i].c != c {
		return false
	}
	last := len(h.items) - 1
	if i != last {
		h.items[i] = h.items[last]
		h.items[i].c.PolicyCookie = i
	}
	h.items[last] = vitem{}
	h.items = h.items[:last]
	if i < last {
		if !h.up(i) {
			h.down(i)
		}
	}
	return true
}

// up restores the heap property from index i toward the root and
// reports whether the element moved.
func (h *vheap) up(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !h.items[i].less(h.items[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

// down restores the heap property from index i toward the leaves.
func (h *vheap) down(i int) {
	n := len(h.items)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		small := l
		if r := l + 1; r < n && h.items[r].less(h.items[l]) {
			small = r
		}
		if !h.items[small].less(h.items[i]) {
			return
		}
		h.swap(i, small)
		i = small
	}
}

func (h *vheap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].c.PolicyCookie = i
	h.items[j].c.PolicyCookie = j
}
