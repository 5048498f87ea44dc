package cluster

import (
	"sort"
	"time"

	"mlcr/internal/image"
	"mlcr/internal/workload"
)

// --- round-robin ---

// roundRobinRouter cycles through workers by stream index — oblivious
// to warm state, stateless, and bit-identical to the pre-Router loop.
type roundRobinRouter struct{ workers int }

func (r *roundRobinRouter) Name() string            { return "round-robin" }
func (r *roundRobinRouter) Shards() int             { return ShardsStateless }
func (r *roundRobinRouter) Begin(workload.Workload) {}
func (r *roundRobinRouter) Route(_, i int, _ *workload.Invocation) int {
	return i % r.workers
}

// --- by-function ---

// byFunctionRouter gives every function a home worker whose pool
// accumulates its containers: splitmix64 of the function ID, mod the
// worker count. It is the placement of both the cluster and the
// gateway, which places each catalogue function on a shard through it
// (DESIGN.md §13, §15). Any ID, negative or sparse, maps in range; the
// "hash" router is the affinity policy that is also stable under
// worker-count changes.
type byFunctionRouter struct{ workers int }

func (r *byFunctionRouter) Name() string            { return "by-function" }
func (r *byFunctionRouter) Shards() int             { return ShardsStateless }
func (r *byFunctionRouter) Begin(workload.Workload) {}
func (r *byFunctionRouter) Route(_, _ int, inv *workload.Invocation) int {
	return homeWorker(inv.Fn.ID, r.workers)
}

// homeWorker maps a function ID to its by-function home worker.
func homeWorker(id, workers int) int {
	return int(splitmix64(uint64(id)) % uint64(workers))
}

// --- least-loaded ---

// leastLoadedRouter routes to the worker with the smallest outstanding
// execution-time estimate at each arrival. The estimator is
// order-dependent — every decision updates the busy-until state the
// next one reads — so the router declares one shard and replays the
// pre-Router sequential loop bit-for-bit: an O(workers) scan per
// invocation with first-lowest-index tie-breaking. It is kept as the
// sequential baseline the sharded routers are benchmarked against.
type leastLoadedRouter struct {
	workers   int
	busyUntil []time.Duration
}

func newLeastLoaded(cfg RouterConfig) *leastLoadedRouter {
	return &leastLoadedRouter{workers: cfg.Workers, busyUntil: make([]time.Duration, cfg.Workers)}
}

func (r *leastLoadedRouter) Name() string            { return "least-loaded" }
func (r *leastLoadedRouter) Shards() int             { return 1 }
func (r *leastLoadedRouter) Begin(workload.Workload) {}

func (r *leastLoadedRouter) Route(_, _ int, inv *workload.Invocation) int {
	target := 0
	for k := 1; k < r.workers; k++ {
		if load(r.busyUntil[k], inv.Arrival) < load(r.busyUntil[target], inv.Arrival) {
			target = k
		}
	}
	r.busyUntil[target] = busyAfter(r.busyUntil[target], inv)
	return target
}

// load is the outstanding-work estimate of a worker at time now.
func load(busyUntil, now time.Duration) time.Duration {
	if busyUntil <= now {
		return 0
	}
	return busyUntil - now
}

// busyAfter advances a worker's busy-until estimate past inv: work
// starts when the worker frees up (or at arrival if it is idle) and
// holds it for the invocation's execution time.
func busyAfter(busyUntil time.Duration, inv *workload.Invocation) time.Duration {
	end := inv.Arrival + inv.Exec
	if busyUntil > inv.Arrival {
		end = busyUntil + inv.Exec
	}
	return end
}

// --- hash (consistent-hashing ring) ---

// ringVnodes is the number of virtual nodes per worker. 96 keeps the
// per-worker share within a few percent of uniform at 1000 workers
// while the ring (96k points, 1.2 MB) still builds in about a
// millisecond and binary-searches in ~17 probes.
const ringVnodes = 96

// ringRouter is a consistent-hashing ring with virtual nodes, keyed on
// function identity and the function's deepest (L3/Runtime) level key:
// every invocation of a function lands on one home worker, functions
// spread uniformly regardless of ID density, and the mapping is stable
// under worker-count changes in the consistent-hashing sense (growing
// the cluster remaps only the keys adjacent to the new vnodes, so warm
// pools survive resizes). Stateless: the ring and the per-function key
// cache are built in the constructor and Begin, then only read.
type ringRouter struct {
	workers int
	seed    int64
	// points is the sorted ring: hashes[i] ascending, worker[i] the
	// owning worker. Two parallel slices beat a slice of structs here:
	// the binary search touches only hashes.
	hashes []uint64
	worker []uint32
	// keys caches each catalog function's ring key, filled once in
	// Begin so the per-invocation path is one map read. Functions not
	// in the catalog (foreign invocations) fall back to hashing inline.
	keys map[*workload.Function]uint64
}

func newRing(cfg RouterConfig) *ringRouter {
	r := &ringRouter{workers: cfg.Workers, seed: cfg.Seed}
	n := cfg.Workers * ringVnodes
	type point struct {
		hash   uint64
		worker uint32
	}
	pts := make([]point, 0, n)
	for w := 0; w < cfg.Workers; w++ {
		base := splitmix64(uint64(cfg.Seed) + uint64(w)*0x9e3779b97f4a7c15)
		for v := 0; v < ringVnodes; v++ {
			pts = append(pts, point{hash: splitmix64(base + uint64(v)), worker: uint32(w)})
		}
	}
	// Sort by hash; ties (astronomically unlikely) break by worker
	// index so the ring is deterministic regardless of input order.
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].hash != pts[j].hash {
			return pts[i].hash < pts[j].hash
		}
		return pts[i].worker < pts[j].worker
	})
	r.hashes = make([]uint64, n)
	r.worker = make([]uint32, n)
	for i, p := range pts {
		r.hashes[i] = p.hash
		r.worker[i] = p.worker
	}
	return r
}

func (r *ringRouter) Name() string { return "hash" }
func (r *ringRouter) Shards() int  { return ShardsStateless }

func (r *ringRouter) Begin(w workload.Workload) {
	r.keys = make(map[*workload.Function]uint64, len(w.Functions))
	for _, f := range w.Functions {
		r.keys[f] = r.fnKey(f)
	}
}

// fnKey derives a function's stable 64-bit ring key from its ID and
// its canonical L3 level-key string (not the interned LevelID, whose
// value depends on interning order — see fnv64). Including the ID
// spreads same-image clone catalogs; including the level key gives
// re-provisioned catalogs with stable images stable placement.
func (r *ringRouter) fnKey(f *workload.Function) uint64 {
	return splitmix64(uint64(int64(f.ID))^uint64(r.seed)) ^ fnv64(f.Image.LevelKey(image.Runtime))
}

func (r *ringRouter) Route(_, _ int, inv *workload.Invocation) int {
	k, ok := r.keys[inv.Fn]
	if !ok {
		k = r.fnKey(inv.Fn)
	}
	// First ring point at or after k, wrapping to 0.
	lo, hi := 0, len(r.hashes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.hashes[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.hashes) {
		lo = 0
	}
	return int(r.worker[lo])
}

// --- p2c (power of two choices) ---

// p2cRouter is deterministic power-of-two-choices over per-shard load
// accumulators. The stream is split into DefaultRouteShards fixed
// interleaved sub-streams; each shard owns a private busy-until array
// covering every worker and sees only the load its own sub-stream
// placed — a 1-in-k temporal sample of the cluster, enough signal for
// the classic p2c result (exponential improvement over random single
// choice) while keeping shards completely independent so routing fans
// out across runner goroutines. Probes derive from splitmix64 of the
// stream index, so decisions depend only on (shard state, i, inv):
// bit-identical at any Parallelism. Ties break toward the lower worker
// index. Per-shard state merges only at the end-of-route barrier.
type p2cRouter struct {
	workers int
	seed    uint64
	// busy[s][w] is shard s's busy-until estimate for worker w. Rows
	// are separate allocations so concurrent shards never share a
	// cache line's worth of hot counters.
	busy [][]time.Duration
}

func newP2C(cfg RouterConfig) *p2cRouter {
	shards := DefaultRouteShards
	r := &p2cRouter{workers: cfg.Workers, seed: splitmix64(uint64(cfg.Seed)), busy: make([][]time.Duration, shards)}
	for s := range r.busy {
		r.busy[s] = make([]time.Duration, cfg.Workers)
	}
	return r
}

func (r *p2cRouter) Name() string            { return "p2c" }
func (r *p2cRouter) Shards() int             { return len(r.busy) }
func (r *p2cRouter) Begin(workload.Workload) {}

func (r *p2cRouter) Route(shard, i int, inv *workload.Invocation) int {
	b := r.busy[shard]
	h := splitmix64(uint64(i) ^ r.seed)
	w := uint64(r.workers)
	c1 := int(h % w)
	c2 := int((h >> 32) % w)
	if c1 == c2 {
		c2 = (c2 + 1) % int(w)
	}
	// Deterministic tie-breaking by worker index: scan the pair in
	// index order and require strict improvement to switch.
	lo, hi := c1, c2
	if hi < lo {
		lo, hi = hi, lo
	}
	target := lo
	if load(b[hi], inv.Arrival) < load(b[lo], inv.Arrival) {
		target = hi
	}
	b[target] = busyAfter(b[target], inv)
	return target
}
