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
	}
	if _, err := NewRouter("nope", RouterConfig{Workers: 2}); err == nil {
		t.Fatal("unknown router name did not error")
	}
	if _, err := NewRouter("p2c", RouterConfig{Workers: 0}); err == nil {
		t.Fatal("Workers 0 did not error")
	}
}

// pinnedRoutingFingerprints are sha256[:12] hashes over the routed
// counts and per-worker runner.Fingerprints of ten cluster runs
// (every router on Uniform and Peak, seed 3, 5 workers, pool 3000 MB,
// Greedy-Match + LRU). The round-robin and least-loaded cells were
// captured before the Router refactor, when routing was one sequential
// switch in route(), and the re-expressed routers replay them
// bit-for-bit. The by-function cells were re-recorded when its home
// worker became splitmix64(id) mod workers, the gateway's placement,
// instead of id mod workers. The hash and p2c cells were captured
// while routing still fanned out over goroutines, p2c with one shard
// per accumulator, and the sequential loop replays them. Any drift in
// target selection, partition order or per-worker Seq numbering
// changes a hash here.
var pinnedRoutingFingerprints = map[[2]string]string{
	{"round-robin", "Uniform"}:  "d8f5ddb6dfa804443163e8f9",
	{"round-robin", "Peak"}:     "7bc335fe6fb3735afa9c8d87",
	{"by-function", "Uniform"}:  "250bd620297ac1dc50b7f62a",
	{"by-function", "Peak"}:     "14ddc44a37bac58d298170b9",
	{"least-loaded", "Uniform"}: "d636371f295ba01f8e5eb812",
	{"least-loaded", "Peak"}:    "8dad0b493d71307ad30515da",
	{"hash", "Uniform"}:         "b510301af4fda0b63147aed9",
	{"hash", "Peak"}:            "afc2b0c2588a69e0afcdb4f5",
	{"p2c", "Uniform"}:          "78a97afdf647856585116ba9",
	{"p2c", "Peak"}:             "98b36d3f10a0ffd3a19a64ce",
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
			t.Errorf("%s/%s fingerprint %s, pinned %s", router, wname, got, want)
		}
		// A silent cold-start fallback must never flatter a figure.
		for i, pr := range res.PerWorker {
			if pr.PolicyErrors != 0 {
				t.Errorf("%s/%s worker %d: %d policy errors in a pinned run", router, wname, i, pr.PolicyErrors)
			}
		}
	}
}

// TestEveryRouterParallelMatchesSequential: every registered router
// must yield identical partitions — and therefore identical per-worker
// replay fingerprints — whether the worker simulations run one at a
// time, 8 at once or GOMAXPROCS at once. scripts/check.sh runs it
// under -race -short, so it must keep running under -short.
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

// TestP2CStreamsRouteAlone: p2c's load accumulators share nothing. A
// fresh router that routes only the indices i ≡ s mod p2cStreams sends
// each one where the full sequential run does, so accumulator s sees
// exactly its own sub-stream.
func TestP2CStreamsRouteAlone(t *testing.T) {
	w := fstartbench.Build(fstartbench.Peak, 7, fstartbench.Options{Count: 400})
	rc := RouterConfig{Workers: 9, Seed: 11}
	want := routeTargets(MustNewRouter("p2c", rc), w, rc.Workers, nil)
	for s := 0; s < p2cStreams; s++ {
		r := MustNewRouter("p2c", rc)
		r.Begin(w)
		for i := s; i < len(w.Invocations); i += p2cStreams {
			if got := r.Route(i, &w.Invocations[i]); got != int(want[i]) {
				t.Fatalf("stream %d routed alone sends invocation %d to worker %d, full run to %d", s, i, got, want[i])
			}
		}
	}
}

// TestRouteTargetsMatchPartition: partition must preserve stream order
// within each worker and number Seq 0..len-1 per partition.
func TestRouteTargetsMatchPartition(t *testing.T) {
	w := fstartbench.Build(fstartbench.Uniform, 4, fstartbench.Options{Count: 120})
	r := MustNewRouter("hash", RouterConfig{Workers: 7, Seed: 3})
	targets := routeTargets(r, w, 7, nil)
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
// range) and sparse IDs must route in range, and every ID takes the
// one placement hash, splitmix64(id) mod workers.
func TestHomeWorkerGuard(t *testing.T) {
	for _, workers := range []int{1, 3, 7, 1000} {
		for _, id := range []int{-1, -13, -1 << 40, 0, 1, 12, 1000, 1 << 40} {
			got := homeWorker(id, workers)
			if got < 0 || got >= workers {
				t.Fatalf("homeWorker(%d, %d) = %d out of range", id, workers, got)
			}
			if want := int(splitmix64(uint64(id)) % uint64(workers)); got != want {
				t.Fatalf("homeWorker(%d, %d) = %d, want splitmix64 mod workers %d", id, workers, got, want)
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
	targets := routeTargets(r, w, 3, nil) // pre-refactor: panic on -1
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
		ids[i] = (i + 1) * workers // id mod workers would send every one to worker 0
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
	targets := routeTargets(r, w, 11, nil)
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
	targets := routeTargets(r, w, workers, nil)
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
	for _, name := range RouterNames() {
		r := MustNewRouter(name, RouterConfig{Workers: 64, Seed: 1})
		r.Begin(w)
		// One warm-up pass, then the measured passes replay the
		// decision loop the cluster runs.
		pass := func() {
			for i := range w.Invocations {
				if tg := r.Route(i, &w.Invocations[i]); tg < 0 || tg >= 64 {
					panic("target out of range")
				}
			}
		}
		pass()
		if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
			t.Errorf("router %s: %.1f allocs per %d-invocation route pass, want 0", name, allocs, len(w.Invocations))
		}
	}
}

// TestClusterRoutingObservability: a cluster run's export carries one
// mlcr_cluster_routed_total counter per worker, read off Result.Routed,
// the route-phase latency summary of the observer's profiler, and each
// run series once, summed over the workers; on one worker those series
// are the platform run's export.
func TestClusterRoutingObservability(t *testing.T) {
	w := fstartbench.Build(fstartbench.Uniform, 1, fstartbench.Options{Count: 90})
	var tick time.Duration
	o := &obs.Observer{Perf: perf.New(func() time.Duration { tick += time.Microsecond; return tick })}
	cfg := mkCfg(3, "round-robin", 3000)
	cfg.Obs = o
	res := Run(cfg, w)
	if h := o.Perf.Phase(perf.PhaseRoute); h.Count() != int64(len(w.Invocations)) {
		t.Fatalf("route phase recorded %d spans, want %d", h.Count(), len(w.Invocations))
	}
	var b strings.Builder
	if err := obs.WritePrometheus(&b, res.ExportMetrics(o.Perf)); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for wk, n := range res.Routed {
		if want := fmt.Sprintf("mlcr_cluster_routed_total{worker=\"%d\"} %d\n", wk, n); !strings.Contains(text, want) {
			t.Errorf("export lacks %q", want)
		}
	}
	for _, want := range []string{
		`mlcr_phase_seconds{phase="route",quantile=`,
		fmt.Sprintf("mlcr_phase_seconds_count{phase=\"route\"} %d\n", len(w.Invocations)),
		fmt.Sprintf("mlcr_invocations_total %d\n", len(w.Invocations)),
		fmt.Sprintf("mlcr_startup_seconds_count %d\n", len(w.Invocations)),
		fmt.Sprintf("mlcr_cold_starts_total %d\n", res.ColdStarts()),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("export lacks %q", want)
		}
	}
	one := Run(mkCfg(1, "round-robin", 3000), w)
	var got, want strings.Builder
	obs.WritePrometheus(&got, one.ExportMetrics(nil))
	obs.WritePrometheus(&want, append(one.PerWorker[0].ExportMetrics(), obs.Metric{
		Name: `mlcr_cluster_routed_total{worker="0"}`, Help: "Invocations routed to each cluster worker.",
		Type: obs.TypeCounter, Value: float64(len(w.Invocations)),
	}))
	if got.String() != want.String() {
		t.Errorf("one-worker export:\n%s\nwant the platform's:\n%s", got.String(), want.String())
	}
	if t.Failed() {
		t.Logf("export:\n%s", text)
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

func TestRoutingEvictorGridSmoke(t *testing.T) {
	// Small routing × evictor grid: every registered router crossed
	// with every eviction policy, exercised under -race by check.sh.
	w := fstartbench.Build(fstartbench.Uniform, 6, fstartbench.Options{Count: 120})
	for _, router := range RouterNames() {
		for _, ev := range evict.Names() {
			cfg := Config{
				Workers:        4,
				PoolCapacityMB: 4000,
				Router:         router,
				NewEvictor:     func(int) pool.Evictor { return evict.MustNew(ev) },
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
