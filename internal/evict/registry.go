package evict

import "mlcr/internal/named"

// registry is the eviction-policy registry. Each constructor returns an
// independent instance: policies are stateful and never shared across
// pools.
var registry = named.Table[func() Policy]{Kind: "evict policy"}

func init() {
	registry.Register("clean", func() Policy { return NewCleanFirst() })
	registry.Register("faascache", func() Policy { return NewFaasCache() })
	registry.Register("keepalive", func() Policy { return KeepAlive{} })
	registry.Register("lru", func() Policy { return NewLRU() })
}

// New builds a fresh instance of the named policy, or an error naming
// the known policies.
func New(name string) (Policy, error) {
	mk, err := registry.Lookup(name)
	if err != nil {
		return nil, err
	}
	return mk(), nil
}

// Names returns the registered policy names in sorted order. The slice
// is fresh; callers may keep it.
func Names() []string { return registry.Names() }

// MustNew is New for statically known names; it panics on error.
func MustNew(name string) Policy {
	p, err := New(name)
	if err != nil {
		panic(err)
	}
	return p
}
