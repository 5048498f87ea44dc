// Package named is the one name → constructor table behind every
// registry in the repository: eviction policies (evict), cluster
// routers (cluster) and schedulers (policy). The table is a sorted
// slice, not a map, so Names and any iteration are deterministic
// without sorting at call sites, and a lookup is a binary search.
package named

import (
	"fmt"
	"slices"
)

// Table maps names to constructors of type F. The zero value is an
// empty table; set Kind to name its entries in panics and errors
// (e.g. "evict policy"). Register from package init or test setup
// only: the table is not locked.
type Table[F any] struct {
	Kind  string
	names []string
	mks   []F
}

// Register adds a named constructor. It panics on an empty or
// duplicate name.
func (t *Table[F]) Register(name string, mk F) {
	if name == "" {
		panic(fmt.Sprintf("named: empty %s name", t.Kind))
	}
	i, found := slices.BinarySearch(t.names, name)
	if found {
		panic(fmt.Sprintf("named: duplicate %s %q", t.Kind, name))
	}
	t.names = slices.Insert(t.names, i, name)
	t.mks = slices.Insert(t.mks, i, mk)
}

// Lookup returns the constructor registered under name, or an error
// naming the known entries.
func (t *Table[F]) Lookup(name string) (F, error) {
	if i, found := slices.BinarySearch(t.names, name); found {
		return t.mks[i], nil
	}
	var zero F
	return zero, fmt.Errorf("unknown %s %q (have %v)", t.Kind, name, t.names)
}

// Names returns the registered names in sorted order. The slice is
// fresh; callers may keep it.
func (t *Table[F]) Names() []string { return slices.Clone(t.names) }
