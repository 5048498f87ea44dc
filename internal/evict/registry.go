package evict

import "mlcr/internal/named"

// Constructor builds a fresh Policy instance. seed feeds policies with
// RNG state (Random); deterministic policies ignore it. Constructors
// must return independent instances — policies are stateful and never
// shared across pools.
type Constructor func(seed int64) Policy

var registry = named.Table[Constructor]{Kind: "evict policy"}

// Register adds a named policy constructor to the zoo. It panics on an
// empty or duplicate name; call from package init or test setup only.
func Register(name string, mk Constructor) { registry.Register(name, mk) }

// New builds a fresh instance of the named policy, or an error naming
// the known policies.
func New(name string, seed int64) (Policy, error) {
	mk, err := registry.Lookup(name)
	if err != nil {
		return nil, err
	}
	return mk(seed), nil
}

// Names returns the registered policy names in sorted order. The slice
// is fresh; callers may keep it.
func Names() []string { return registry.Names() }

// MustNew is New for statically known names; it panics on error.
func MustNew(name string, seed int64) Policy {
	p, err := New(name, seed)
	if err != nil {
		panic(err)
	}
	return p
}

func init() {
	Register("adaptive-keepalive", func(int64) Policy { return NewAdaptiveKeepAlive() })
	Register("clean", func(int64) Policy { return NewCleanFirst() })
	Register("cost", func(int64) Policy { return NewCostDensity() })
	Register("faascache", func(int64) Policy { return NewFaasCache() })
	Register("fifo", func(int64) Policy { return NewFIFO() })
	Register("keepalive", func(int64) Policy { return KeepAlive{} })
	Register("lfu", func(int64) Policy { return NewLFU() })
	Register("lru", func(int64) Policy { return NewLRU() })
	Register("random", func(seed int64) Policy { return NewRandom(seed) })
	Register("size", func(int64) Policy { return NewSizeLargest() })
	Register("ttl", func(int64) Policy { return NewTTL(0) })
}
