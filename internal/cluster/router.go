package cluster

import (
	"fmt"
	"sort"

	"mlcr/internal/workload"
)

// Router is the deterministic routing contract (DESIGN.md §13). A
// router is built fresh per cluster run by the registry, observes the
// workload once in Begin, and then decides a worker for every
// invocation through Route. The contract makes routing shardable
// without giving up bit-identical replay:
//
//   - Shards() == ShardsStateless (0): Route is a pure function of
//     (i, inv) — no mutable state. The cluster may call it from any
//     goroutine over any index chunking; results cannot depend on
//     order. Begin may still precompute shared read-only state (e.g.
//     the consistent-hash ring), which concurrent Route calls must not
//     mutate.
//   - Shards() == 1: the router is order-dependent. Route is called
//     with shard 0 for i = 0, 1, …, n-1 from a single goroutine —
//     exactly the pre-Router sequential loop.
//   - Shards() == k > 1: the stream is split into k fixed interleaved
//     sub-streams (shard s owns the indices i with i % k == s). Route
//     is called with increasing i within a shard; different shards may
//     run concurrently and must touch disjoint state. k is part of the
//     router's definition — never derived from Parallelism or core
//     count — so decisions are identical at any Parallelism and on any
//     machine. Per-shard state meets only at the end-of-route barrier,
//     where partitions (and profiler state) merge in shard order.
//
// Route must be allocation-free in steady state: the route path is a
// per-invocation hot loop at cluster scale (see the 0-alloc assertion
// in router_test.go).
type Router interface {
	// Name is the registry name the router was built under.
	Name() string
	// Shards declares the determinism granularity documented above.
	Shards() int
	// Begin is the per-run pre-pass over the workload: build rings,
	// per-function key caches, load accumulators. Called exactly once,
	// before any Route call.
	Begin(w workload.Workload)
	// Route returns the target worker in [0, Workers) for invocation
	// inv at stream index i. shard identifies the calling sub-stream
	// (always 0 when sequential; informational for stateless routers).
	Route(shard, i int, inv *workload.Invocation) int
}

// RouterConfig parameterizes router construction.
type RouterConfig struct {
	// Workers is the cluster size the router targets (>= 1).
	Workers int
	// Seed salts hash-based placement (ring vnodes, p2c probe
	// sequences). The default 0 is deterministic like any other value.
	Seed int64
}

// ShardsStateless is the Shards() value of order-independent routers.
const ShardsStateless = 0

// DefaultRouteShards is the fixed shard count of the power-of-two-
// choices router. It is a constant of the router's definition, not a
// tuning knob: changing it changes which sub-stream each invocation's
// load accumulator sees, and therefore the routing itself.
const DefaultRouteShards = 8

// RouterConstructor builds a fresh Router instance for one cluster
// run. Routers are stateful (load accumulators, key caches) and must
// never be shared across runs.
type RouterConstructor func(cfg RouterConfig) Router

// routerRegistration pairs a registry name with its constructor; the
// table is a sorted slice so RouterNames and iteration stay
// deterministic without per-call sorting.
type routerRegistration struct {
	name string
	mk   RouterConstructor
}

var routerRegistry []routerRegistration

// RegisterRouter adds a named router constructor. It panics on a
// duplicate or empty name; call from package init or test setup only.
func RegisterRouter(name string, mk RouterConstructor) {
	if name == "" || mk == nil {
		panic("cluster: RegisterRouter with empty name or nil constructor")
	}
	i := sort.Search(len(routerRegistry), func(i int) bool { return routerRegistry[i].name >= name })
	if i < len(routerRegistry) && routerRegistry[i].name == name {
		panic(fmt.Sprintf("cluster: duplicate router %q", name))
	}
	routerRegistry = append(routerRegistry, routerRegistration{})
	copy(routerRegistry[i+1:], routerRegistry[i:])
	routerRegistry[i] = routerRegistration{name: name, mk: mk}
}

// NewRouter builds a fresh instance of the named router, or an error
// naming the known routers.
func NewRouter(name string, cfg RouterConfig) (Router, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("cluster: router %q needs Workers >= 1, got %d", name, cfg.Workers)
	}
	i := sort.Search(len(routerRegistry), func(i int) bool { return routerRegistry[i].name >= name })
	if i < len(routerRegistry) && routerRegistry[i].name == name {
		return routerRegistry[i].mk(cfg), nil
	}
	return nil, fmt.Errorf("cluster: unknown router %q (have %v)", name, RouterNames())
}

// MustNewRouter is NewRouter for statically known names; panics on error.
func MustNewRouter(name string, cfg RouterConfig) Router {
	r, err := NewRouter(name, cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// RouterNames returns the registered router names in sorted order. The
// slice is fresh; callers may keep it.
func RouterNames() []string {
	out := make([]string, len(routerRegistry))
	for i, r := range routerRegistry {
		out[i] = r.name
	}
	return out
}

// splitmix64 is the SplitMix64 finalizer: a fast, high-quality 64-bit
// mixing function. All routing hashes go through it so placement is
// uniform even for dense or adversarial inputs (sequential function
// IDs, sparse ID catalogs).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv64 hashes a string with FNV-1a. Routing keys derive from the
// canonical level-key strings rather than interned image.LevelIDs
// because LevelID values depend on process-wide interning order (see
// internal/image/universe.go); the strings are stable across runs, so
// ring placement is too. Each function is hashed once per run in
// Begin, never on the per-invocation path.
func fnv64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

func init() {
	RegisterRouter("round-robin", func(cfg RouterConfig) Router { return &roundRobinRouter{workers: cfg.Workers} })
	RegisterRouter("by-function", func(cfg RouterConfig) Router { return &byFunctionRouter{workers: cfg.Workers} })
	RegisterRouter("least-loaded", func(cfg RouterConfig) Router { return newLeastLoaded(cfg) })
	RegisterRouter("hash", func(cfg RouterConfig) Router { return newRing(cfg) })
	RegisterRouter("p2c", func(cfg RouterConfig) Router { return newP2C(cfg) })
}
