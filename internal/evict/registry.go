package evict

import "mlcr/internal/named"

// Constructor builds a fresh Policy instance. Constructors must return
// independent instances — policies are stateful and never shared across
// pools.
type Constructor func() Policy

var registry = named.Table[Constructor]{Kind: "evict policy"}

// Register adds a named policy constructor to the registry. It panics
// on an empty or duplicate name; call from package init or test setup
// only.
func Register(name string, mk Constructor) { registry.Register(name, mk) }

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

func init() {
	Register("clean", func() Policy { return NewCleanFirst() })
	Register("faascache", func() Policy { return NewFaasCache() })
	Register("keepalive", func() Policy { return KeepAlive{} })
	Register("lru", func() Policy { return NewLRU() })
}
