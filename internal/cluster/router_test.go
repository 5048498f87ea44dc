package cluster

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"mlcr/internal/evict"
	"mlcr/internal/fstartbench"
	"mlcr/internal/obs"
	"mlcr/internal/obs/perf"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/pool"
	"mlcr/internal/runner"
	"mlcr/internal/workload"
)

func TestRouterRegistry(t *testing.T) {
	names := RouterNames()
	want := []string{"by-function", "hash", "least-loaded", "p2c", "round-robin"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("RouterNames() = %v, want %v", names, want)
	}
	for _, name := range names {
		r := MustNewRouter(name, RouterConfig{Workers: 4})
		if r.Name() != name {
			t.Errorf("router %q reports Name() %q", name, r.Name())
		}
		if s := r.Shards(); s < 0 {
			t.Errorf("router %q: negative Shards() %d", name, s)
		}
	}
	if _, err := NewRouter("nope", RouterConfig{Workers: 2}); err == nil {
		t.Fatal("unknown router name did not error")
	}
	if _, err := NewRouter("p2c", RouterConfig{Workers: 0}); err == nil {
		t.Fatal("Workers 0 did not error")
	}
}

// pinnedRoutingFingerprints are sha256[:12] hashes over the routed
// counts and per-worker runner.Fingerprints of six cluster runs
// (Uniform and Peak, seed 3, 5 workers, pool 3000 MB, Greedy-Match +
// LRU) captured BEFORE the Router refactor, when routing was one
// sequential switch in route(). The refactor's contract is that the
// re-expressed round-robin / by-function / least-loaded routers replay
// those runs bit-for-bit — any drift in target selection, partition
// order or per-worker Seq numbering changes a hash here.
var pinnedRoutingFingerprints = map[[2]string]string{
	{"round-robin", "Uniform"}:  "d8f5ddb6dfa804443163e8f9",
	{"round-robin", "Peak"}:     "7bc335fe6fb3735afa9c8d87",
	{"by-function", "Uniform"}:  "7d54bde86eba328e0b547c18",
	{"by-function", "Peak"}:     "b59f9c9f21d6e93f9750e043",
	{"least-loaded", "Uniform"}: "d636371f295ba01f8e5eb812",
	{"least-loaded", "Peak"}:    "8dad0b493d71307ad30515da",
}

func clusterFingerprint(res Result) string {
	h := sha256.New()
	for i, pr := range res.PerWorker {
		fmt.Fprintf(h, "routed %d %d\n", i, res.Routed[i])
		h.Write([]byte(runner.Fingerprint(pr)))
	}
	sum := h.Sum(nil)
	return fmt.Sprintf("%x", sum[:12])
}

func TestPinnedRoutingFingerprints(t *testing.T) {
	for key, want := range pinnedRoutingFingerprints {
		router, wname := key[0], key[1]
		w := fstartbench.Build(wname, 3, fstartbench.Options{})
		cfg := mkCfg(5, "round-robin", 3000)
		cfg.Router = router
		cfg.Parallelism = 1
		res := Run(cfg, w)
		if got := clusterFingerprint(res); got != want {
			t.Errorf("%s/%s fingerprint %s, pinned pre-refactor %s", router, wname, got, want)
		}
		// A silent cold-start fallback must never flatter a figure.
		for i, pr := range res.PerWorker {
			if pr.PolicyErrors != 0 {
				t.Errorf("%s/%s worker %d: %d policy errors in a pinned run", router, wname, i, pr.PolicyErrors)
			}
		}
	}
}

// TestEveryRouterParallelMatchesSequential is the property test of the
// Router determinism contract: every registered router must yield
// identical partitions — and therefore identical per-worker replay
// fingerprints — at Parallelism 1, 8 and GOMAXPROCS.
func TestEveryRouterParallelMatchesSequential(t *testing.T) {
	w := fstartbench.Build(fstartbench.Peak, 7, fstartbench.Options{Count: 400})
	for _, name := range RouterNames() {
		mk := func(par int) Config {
			cfg := mkCfg(9, "round-robin", 9000)
			cfg.Router = name
			cfg.RouterSeed = 11
			cfg.Parallelism = par
			return cfg
		}
		seq := Run(mk(1), w)
		seqFP := clusterFingerprint(seq)
		for _, par := range []int{8, 0} {
			got := Run(mk(par), w)
			if !reflect.DeepEqual(seq.Routed, got.Routed) {
				t.Fatalf("router %s: routed counts diverged at parallelism %d:\n%v\n%v",
					name, par, seq.Routed, got.Routed)
			}
			if fp := clusterFingerprint(got); fp != seqFP {
				t.Fatalf("router %s: replay fingerprint diverged at parallelism %d", name, par)
			}
		}
	}
}

// TestRouteTargetsMatchPartition: partition must preserve stream order
// within each worker and number Seq 0..len-1 per partition.
func TestRouteTargetsMatchPartition(t *testing.T) {
	w := fstartbench.Build(fstartbench.Uniform, 4, fstartbench.Options{Count: 120})
	r := MustNewRouter("hash", RouterConfig{Workers: 7, Seed: 3})
	targets := routeTargets(r, w, 7, 1, nil)
	parts, routed := partition(w, targets, 7)
	total := 0
	for k, part := range parts {
		total += len(part)
		if routed[k] != len(part) {
			t.Fatalf("worker %d: routed %d != partition %d", k, routed[k], len(part))
		}
		last := time.Duration(-1)
		for i, inv := range part {
			if inv.Seq != i {
				t.Fatalf("worker %d: Seq %d at position %d", k, inv.Seq, i)
			}
			if inv.Arrival < last {
				t.Fatalf("worker %d: arrival order broken at %d", k, i)
			}
			last = inv.Arrival
		}
	}
	if total != len(w.Invocations) {
		t.Fatalf("partitions hold %d of %d invocations", total, len(w.Invocations))
	}
}

// TestHomeWorkerGuard is the regression test for the by-function
// modulo panic: negative IDs (raw id % workers would index out of
// range) and sparse IDs must route deterministically in range.
func TestHomeWorkerGuard(t *testing.T) {
	for _, workers := range []int{1, 3, 7, 1000} {
		for _, id := range []int{-1, -13, -1 << 40, 0, 1, 12, 1000, 1 << 40} {
			got := homeWorker(id, workers)
			if got < 0 || got >= workers {
				t.Fatalf("homeWorker(%d, %d) = %d out of range", id, workers, got)
			}
			if got != homeWorker(id, workers) {
				t.Fatalf("homeWorker(%d, %d) not deterministic", id, workers)
			}
			if id >= 0 && got != id%workers {
				t.Fatalf("homeWorker(%d, %d) = %d, want legacy dense mapping %d", id, workers, got, id%workers)
			}
		}
	}
}

// negativeIDWorkload builds a tiny workload whose functions carry
// pathological IDs (negative and sparse), bypassing Validate on
// purpose — the router must not be the component that panics on them.
func negativeIDWorkload(ids []int) workload.Workload {
	base := fstartbench.ByID(fstartbench.Functions(), 5)
	var fns []*workload.Function
	var invs []workload.Invocation
	for i, id := range ids {
		f := *base
		f.ID = id
		fn := &f
		fns = append(fns, fn)
		invs = append(invs, workload.Invocation{
			Seq: i, Fn: fn, Arrival: time.Duration(i) * time.Second, Exec: f.Exec})
	}
	return workload.Workload{Name: "pathological", Functions: fns, Invocations: invs}
}

func TestByFunctionPathologicalIDs(t *testing.T) {
	// Platform validation rejects negative IDs at run time, but the
	// router layer must never be the component that panics on them: the
	// pre-refactor raw ID % Workers turned a negative ID into an
	// index-out-of-range crash deep inside partition.
	w := negativeIDWorkload([]int{-1, -7, 0, 5, 5000, 1 << 33})
	r := MustNewRouter("by-function", RouterConfig{Workers: 3})
	targets := routeTargets(r, w, 3, 1, nil) // pre-refactor: panic on -1
	parts, routed := partition(w, targets, 3)
	total := 0
	for k, n := range routed {
		total += n
		if n != len(parts[k]) {
			t.Fatalf("worker %d: routed %d != partition %d", k, n, len(parts[k]))
		}
	}
	if total != len(w.Invocations) {
		t.Fatalf("routed %d of %d pathological invocations", total, len(w.Invocations))
	}
}

// TestRingBalancesSparseIDs: the hash router must spread a sparse ID
// catalog (every ID a multiple of the worker count — the worst case
// for dense modulo, which maps them all to worker 0) across workers.
func TestRingBalancesSparseIDs(t *testing.T) {
	const workers = 8
	ids := make([]int, 64)
	for i := range ids {
		ids[i] = (i + 1) * workers // by-function would send every one to worker 0
	}
	w := negativeIDWorkload(ids)
	cfg := mkCfg(workers, "round-robin", 0)
	cfg.Router = "hash"
	res := Run(cfg, w)
	busiest, nonEmpty := 0, 0
	for _, n := range res.Routed {
		if n > 0 {
			nonEmpty++
		}
		if n > busiest {
			busiest = n
		}
	}
	if nonEmpty < workers/2 {
		t.Fatalf("hash router used only %d of %d workers on a sparse catalog: %v", nonEmpty, workers, res.Routed)
	}
	if busiest == len(ids) {
		t.Fatalf("hash router collapsed the sparse catalog onto one worker: %v", res.Routed)
	}
}

// TestRingFunctionAffinity: every invocation of one function must land
// on the same worker (the locality property warm pools depend on).
func TestRingFunctionAffinity(t *testing.T) {
	w := fstartbench.Build(fstartbench.Uniform, 2, fstartbench.Options{Count: 200})
	r := MustNewRouter("hash", RouterConfig{Workers: 11, Seed: 5})
	targets := routeTargets(r, w, 11, 1, nil)
	home := map[int]uint32{}
	for i, inv := range w.Invocations {
		if prev, ok := home[inv.Fn.ID]; ok && prev != targets[i] {
			t.Fatalf("function %d routed to workers %d and %d", inv.Fn.ID, prev, targets[i])
		}
		home[inv.Fn.ID] = targets[i]
	}
}

// TestRingBalanceAtScale: at 1000 workers with a wide catalog the ring
// must not leave large cold zones (vnode count sanity check).
func TestRingBalanceAtScale(t *testing.T) {
	const workers = 1000
	ids := make([]int, 4000)
	for i := range ids {
		ids[i] = i + 1
	}
	w := negativeIDWorkload(ids)
	r := MustNewRouter("hash", RouterConfig{Workers: workers})
	targets := routeTargets(r, w, workers, 1, nil)
	used := map[uint32]bool{}
	for _, tg := range targets {
		used[tg] = true
	}
	if len(used) < workers/2 {
		t.Fatalf("4000 functions hit only %d of %d workers", len(used), workers)
	}
}

// TestP2CSpreadsLoad: p2c must beat single-choice hashing on a burst of
// identical long jobs — no worker may receive a large majority.
func TestP2CSpreadsLoad(t *testing.T) {
	f := fstartbench.ByID(fstartbench.Functions(), 13)
	var invs []workload.Invocation
	for i := 0; i < 64; i++ {
		invs = append(invs, workload.Invocation{Seq: i, Fn: f,
			Arrival: time.Duration(i) * 10 * time.Millisecond, Exec: f.Exec})
	}
	w := workload.Workload{Name: "burst", Functions: []*workload.Function{f}, Invocations: invs}
	cfg := mkCfg(4, "round-robin", 0)
	cfg.Router = "p2c"
	res := Run(cfg, w)
	for i, n := range res.Routed {
		if n == 0 {
			t.Fatalf("worker %d received nothing under p2c: %v", i, res.Routed)
		}
		if n > 2*len(invs)/3 {
			t.Fatalf("worker %d received %d of %d under p2c: %v", i, n, len(invs), res.Routed)
		}
	}
}

// TestRouteSteadyStateZeroAlloc asserts the per-invocation route path
// allocates nothing for every registered router: the counting-pre-pass
// partition owns all run-level allocation, the decision loop none.
func TestRouteSteadyStateZeroAlloc(t *testing.T) {
	w := fstartbench.Build(fstartbench.Uniform, 9, fstartbench.Options{Count: 2000})
	n := len(w.Invocations)
	for _, name := range RouterNames() {
		r := MustNewRouter(name, RouterConfig{Workers: 64, Seed: 1})
		r.Begin(w)
		shards := r.Shards()
		if shards == ShardsStateless {
			shards = 1
		}
		// One warm-up pass, then the measured passes replay the same
		// shard-ordered decision loop the cluster runs.
		pass := func() {
			for s := 0; s < shards; s++ {
				for i := s; i < n; i += shards {
					if tg := r.Route(s, i, &w.Invocations[i]); tg < 0 || tg >= 64 {
						panic("target out of range")
					}
				}
			}
		}
		pass()
		if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
			t.Errorf("router %s: %.1f allocs per %d-invocation route pass, want 0", name, allocs, n)
		}
	}
}

// TestClusterRoutingObservability: cluster runs must publish the
// per-worker routed counters and the route-phase latency summary into
// the observer's registry.
func TestClusterRoutingObservability(t *testing.T) {
	w := fstartbench.Build(fstartbench.Uniform, 1, fstartbench.Options{Count: 90})
	var tick time.Duration
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	o.Perf = perf.New(func() time.Duration { tick += time.Microsecond; return tick })
	cfg := mkCfg(3, "round-robin", 3000)
	cfg.Obs = o
	res := Run(cfg, w)
	for wk, n := range res.Routed {
		c := o.Metrics.Counter(fmt.Sprintf(`mlcr_cluster_routed_total{worker="%d"}`, wk), "")
		if c.Value() != int64(n) {
			t.Fatalf("worker %d: counter %d, routed %d", wk, c.Value(), n)
		}
	}
	if h := o.Perf.Phase(perf.PhaseRoute); h.Count() != int64(len(w.Invocations)) {
		t.Fatalf("route phase recorded %d spans, want %d", h.Count(), len(w.Invocations))
	}
	snap := o.Metrics.Snapshot()
	if !strings.Contains(snap, `mlcr_phase_seconds{phase="route",quantile=`) {
		t.Fatalf("route-phase latency summary missing from registry snapshot:\n%s", snap)
	}
}

// TestConfigRouterPrecedence: Config.Router is the one routing knob —
// empty means round-robin, and an unknown name panics with the registry
// message.
func TestConfigRouterPrecedence(t *testing.T) {
	w := bench(40)
	res := Run(mkCfg(3, "", 3000), w)
	rr := Run(mkCfg(3, "round-robin", 3000), w)
	if clusterFingerprint(res) != clusterFingerprint(rr) {
		t.Fatal("empty Config.Router did not default to round-robin")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown router name did not panic")
		}
	}()
	bad := mkCfg(2, "round-robin", 0)
	bad.Router = "nope"
	Run(bad, w)
}

// mkClusterSetups is shared by the grid smoke below.
func TestRoutingEvictorGridSmoke(t *testing.T) {
	// Small routing × evictor grid: every registered router crossed
	// with a few eviction policies, exercised under -race by check.sh.
	w := fstartbench.Build(fstartbench.Uniform, 6, fstartbench.Options{Count: 120})
	for _, router := range RouterNames() {
		for _, ev := range []string{"lru", "lfu", "random"} {
			cfg := Config{
				Workers:        4,
				PoolCapacityMB: 4000,
				Router:         router,
				Evictor:        ev,
				EvictorSeed:    3,
				NewScheduler:   func(int) platform.Scheduler { return policy.NewGreedyMatch() },
				Parallelism:    0,
			}
			res := Run(cfg, w)
			served := 0
			for _, pr := range res.PerWorker {
				served += pr.Metrics.Count()
			}
			if served != len(w.Invocations) {
				t.Fatalf("%s/%s: served %d of %d", router, ev, served, len(w.Invocations))
			}
		}
	}
}

var _ = pool.Evictor(nil) // keep the pool import for mkCfg's evictor factory
var _ = evict.Names
