// The concurrent serving path. Server (api.go) serializes every
// decision onto one simulated platform and stays bit-deterministic;
// Gateway trades that determinism for throughput: a sharded pool with
// a lock-free fast path for exact same-function L3 re-hits, in the
// shape of PoolX's three-layer hierarchy —
//
//	layer 1: per-function buffered channel, lock-free claim (L3 exact)
//	layer 2: per-shard mutexed pool segment + scheduling policy
//	layer 3: cold start (fresh sandbox, atomic ID allocation)
//
// Functions hash onto shards; each shard owns a pool segment, a
// scheduler instance and a completion heap, so requests for different
// shards never contend and same-shard requests contend on one short
// critical section instead of a platform-wide lock. Completions are
// virtual-time driven, like the simulator: a container becomes
// reclaimable once its BusyUntil has passed, and the next request that
// observes the shard's earliest-completion watermark (one atomic load)
// drains it. Fingerprint determinism does NOT extend to the gateway —
// concurrent arrival interleaving is inherently racy — but every
// container still moves through the same lifecycle invariants, and
// throughput and latency are measured by bench/'s http_warm and
// http_churn workloads (DESIGN.md §15).
package api

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mlcr/internal/container"
	"mlcr/internal/core"
	"mlcr/internal/evict"
	"mlcr/internal/obs/perf"
	"mlcr/internal/platform"
	"mlcr/internal/pool"
	"mlcr/internal/workload"
)

// GatewayConfig assembles a concurrent gateway.
type GatewayConfig struct {
	// Functions is the invocable catalog (IDs must be unique).
	Functions []*workload.Function
	// PoolCapacityMB is the total warm-pool budget, split evenly across
	// shards (<= 0 unlimited). Within a shard the lock-free fast layer
	// and the pool segment share the budget dynamically.
	PoolCapacityMB float64
	// NewScheduler builds one scheduling-policy instance per shard
	// (fresh set on every reset).
	NewScheduler func() platform.Scheduler
	// NewEvictor builds one pool eviction policy per shard; nil = LRU
	// via the scheduler's preference (pool requires non-nil, so nil
	// falls back to each scheduler's Evictor when it provides one, else
	// LRU).
	NewEvictor func() pool.Evictor
	// Clock supplies elapsed time (monotone offset from an arbitrary
	// origin). Nil means monotonic wall time since construction; tests
	// inject virtual clocks.
	Clock perf.Clock
	// Shards is the number of pool shards; rounded up to a power of
	// two, default 16.
	Shards int
	// FastDepth is the per-function fast-channel depth (default 4):
	// how many idle containers of one function can park in the
	// lock-free layer.
	FastDepth int
	// FastTTL bounds how long a container may sit in the fast layer
	// before a claim discards it as stale (0 = no bound). The mutexed
	// pool segments use the evictor's TTL as usual.
	FastTTL time.Duration
}

// gwFn is one catalog entry resolved against its shard: the function,
// its lock-free fast channel and the precomputed cost of an exact L3
// re-hit (same function, warm runtime — no clean, no repack).
type gwFn struct {
	fn        *workload.Function
	shard     *gwShard
	fast      chan *container.Container
	fastStart container.Startup
	fastNS    int64
	memKB     int64
	fastHits  atomic.Int64
}

// busyRec is one in-flight invocation's completion record.
type busyRec struct {
	c     *container.Container
	until time.Duration
}

// gwShard owns one slice of the warm pool. The mutex guards the pool
// segment, scheduler, completion heap and slow-path counters; the
// atomics below it are the lock-free fast path's shared state.
type gwShard struct {
	mu      sync.Mutex
	pool    *pool.Pool
	sched   platform.Scheduler
	cleaner *container.Cleaner
	rate    workload.RateEMA
	inv     workload.Invocation // slow-path scratch (never escapes the lock)
	heap    []busyRec           // min-heap of in-flight completions by until
	lastNow time.Duration       // per-shard monotone clamp for pool/evictor time
	seen    int
	prevArr time.Duration
	startup perf.HDR // slow-path startup latencies, ns
	colds   int
	warms   int
	byLevel [4]int
	// policyErrs counts scheduler choices platform.Apply did not honour.
	policyErrs int

	fns map[int]*gwFn // this shard's functions

	// Lock-free completion protocol: the fast path re-registers busy
	// containers through doneq and publishes the earliest completion
	// time in nextDone (ns; MaxInt64 = none known). Any request that
	// observes nextDone <= now tries to drain — one TryLock, never a
	// blocking wait on the fast path.
	doneq    chan busyRec
	nextDone atomic.Int64

	runningKB   atomic.Int64 // memory held by busy containers
	fastKB      atomic.Int64 // memory parked in fast channels
	shareKB     int64        // shard memory share (pool + fast combined); 0 = unlimited
	fastExpired atomic.Int64 // stale fast-layer discards
}

// gwState is one immutable-topology generation of the gateway. Reset
// swaps the whole state atomically; requests in flight on the old
// generation finish against it.
type gwState struct {
	byID    map[int]*gwFn // immutable after build
	shards  []*gwShard
	policy  string
	epoch   time.Duration // clock() at reset
	fastTTL time.Duration
	nextID  atomic.Int64 // container IDs
	seq     atomic.Int64 // response sequence numbers
}

// Gateway is the concurrent HTTP serving layer. Safe for arbitrary
// concurrent use.
type Gateway struct {
	cfg   GatewayConfig
	clock perf.Clock
	state atomic.Pointer[gwState]
	mux   *http.ServeMux
}

// NewGateway builds a concurrent gateway.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if _, err := catalogByID(cfg.Functions, cfg.NewScheduler); err != nil {
		return nil, err
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	cfg.Shards = nextPow2(cfg.Shards)
	if cfg.FastDepth <= 0 {
		cfg.FastDepth = 4
	}
	clock := cfg.Clock
	if clock == nil {
		clock = WallClock()
	}
	g := &Gateway{cfg: cfg, clock: clock}
	g.state.Store(g.buildState())
	mux := http.NewServeMux()
	mux.HandleFunc("POST /invoke", g.handleInvoke)
	mux.HandleFunc("GET /stats", g.handleStats)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	mux.HandleFunc("GET /functions", g.handleFunctions)
	mux.HandleFunc("GET /pool", g.handlePool)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("POST /reset", g.handleReset)
	g.mux = mux
	return g, nil
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// nextPow2 rounds n up to a power of two.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// shardOf maps a function ID to its shard by a splitmix64 finalizer —
// cheap, well-mixed, and independent of catalog ordering.
func shardOf(fnID int, mask uint64) int {
	x := uint64(fnID) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x & mask)
}

// buildState constructs a fresh generation: shards, pool segments,
// per-shard schedulers and the function→shard map.
func (g *Gateway) buildState() *gwState {
	cfg := g.cfg
	st := &gwState{
		byID:    make(map[int]*gwFn, len(cfg.Functions)),
		shards:  make([]*gwShard, cfg.Shards),
		epoch:   g.clock(),
		fastTTL: cfg.FastTTL,
	}
	share := 0.0
	if cfg.PoolCapacityMB > 0 {
		share = cfg.PoolCapacityMB / float64(cfg.Shards)
	}
	for i := range st.shards {
		sched := cfg.NewScheduler()
		ev := pool.Evictor(nil)
		if cfg.NewEvictor != nil {
			ev = cfg.NewEvictor()
		}
		if ev == nil {
			ev = evictorFor(sched)
		}
		sh := &gwShard{
			sched:   sched,
			cleaner: &container.Cleaner{},
			rate:    workload.RateEMA{Alpha: 0.2},
			fns:     make(map[int]*gwFn),
			doneq:   make(chan busyRec, 1024),
		}
		if share > 0 {
			sh.shareKB = int64(share * 1024)
		}
		sh.pool = pool.New(share, ev)
		sh.nextDone.Store(math.MaxInt64)
		st.shards[i] = sh
	}
	st.policy = st.shards[0].sched.Name()
	mask := uint64(cfg.Shards - 1)
	for _, f := range cfg.Functions {
		sh := st.shards[shardOf(f.ID, mask)]
		gf := &gwFn{
			fn:        f,
			shard:     sh,
			fast:      make(chan *container.Container, cfg.FastDepth),
			fastStart: container.Estimate(f, core.MatchL3, false),
			memKB:     int64(f.MemoryMB * 1024),
		}
		gf.fastNS = gf.fastStart.Total().Nanoseconds()
		st.byID[f.ID] = gf
		sh.fns[f.ID] = gf
	}
	return st
}

// evictorFor resolves the default eviction policy: the scheduler's
// preferred one when it declares it (the MLCR pairing), LRU otherwise.
func evictorFor(s platform.Scheduler) pool.Evictor {
	if p, ok := s.(interface{ Evictor() pool.Evictor }); ok {
		if ev := p.Evictor(); ev != nil {
			return ev
		}
	}
	return evict.NewLRU()
}

// now returns the gateway's elapsed time since the current generation's
// reset.
func (g *Gateway) now(st *gwState) time.Duration { return g.clock() - st.epoch }

// serve is the gateway's per-invocation hot path — a declared hotalloc
// vet root: the steady-state warm path (fast-layer claim, completion
// re-registration, shard-pool reuse) performs zero heap allocations.
func (st *gwState) serve(gf *gwFn, now, exec time.Duration) (c *container.Container, s container.Startup, lvl core.MatchLevel) {
	sh := gf.shard
	// Reclaim any completions due by now. One atomic load in the common
	// "nothing due" case; TryLock so the fast path never blocks — a
	// lock-holding slow path drains on our behalf.
	if sh.nextDone.Load() <= int64(now) {
		sh.release(st, now)
	}
	// Layer 1: lock-free claim of an exact same-function L3 re-hit.
	for {
		select {
		case c = <-gf.fast:
			sh.fastKB.Add(-gf.memKB)
			if st.fastTTL > 0 && c.IdleFor(now) > st.fastTTL {
				c.Kill()
				sh.fastExpired.Add(1)
				continue
			}
			inv := workload.Invocation{Fn: gf.fn, Arrival: now, Exec: exec}
			s = c.Reuse(&inv, core.MatchL3, now, nil)
			sh.runningKB.Add(gf.memKB)
			gf.fastHits.Add(1)
			sh.finish(busyRec{c: c, until: c.BusyUntil})
			return c, s, core.MatchL3
		default:
		}
		break
	}
	return st.slow(gf, now, exec)
}

// slow serves one invocation through layers 2 and 3 — the shard's
// mutexed pool segment and cold start. The lock is released by defer:
// a scheduler or evictor that panics fails its own request, not every
// later request to the shard.
func (st *gwState) slow(gf *gwFn, now, exec time.Duration) (*container.Container, container.Startup, core.MatchLevel) {
	sh := gf.shard
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if now < sh.lastNow {
		now = sh.lastNow // per-shard monotone time for pool/evictor hooks
	}
	sh.lastNow = now
	sh.releaseLocked(now)
	sh.pool.Expire(now)
	sh.rate.Observe(now)
	sh.inv = workload.Invocation{Seq: sh.seen, Fn: gf.fn, Arrival: now, Exec: exec}
	env := platform.Env{
		Now:         now,
		Pool:        sh.pool,
		RunningMB:   float64(sh.runningKB.Load()) / 1024,
		Seen:        sh.seen,
		PrevArrival: sh.prevArr,
		Rate:        sh.rate.Rate(),
	}
	choice := sh.sched.Schedule(env, &sh.inv)
	c, s, lvl, honoured := platform.Apply(sh.pool, sh.cleaner, &sh.inv, now, choice, st.newID)
	if !honoured {
		sh.policyErrs++
	}
	if s.Cold {
		sh.colds++
	} else {
		sh.warms++
		sh.byLevel[int(lvl)]++
	}
	sh.runningKB.Add(int64(c.MemoryMB * 1024))
	sh.startup.Record(s.Total().Nanoseconds())
	sh.seen++
	sh.prevArr = now
	sh.sched.OnResult(env, &sh.inv, platform.Result{ContainerID: c.ID, Cold: s.Cold, Level: lvl, Startup: s})
	sh.heapPush(busyRec{c: c, until: c.BusyUntil})
	sh.armNextDone(int64(c.BusyUntil))
	return c, s, lvl
}

// newID hands out the next container ID.
func (st *gwState) newID() int { return int(st.nextID.Add(1)) }

// finish re-registers a fast-path claim's completion without taking the
// shard lock: enqueue on doneq and publish the completion watermark.
// A full doneq (pathological backlog) falls back to the locked heap.
func (sh *gwShard) finish(r busyRec) {
	select {
	case sh.doneq <- r:
	default:
		sh.mu.Lock()
		defer sh.mu.Unlock()
		sh.heapPush(r)
	}
	sh.armNextDone(int64(r.until))
}

// armNextDone lowers the completion watermark to v (CAS-min).
func (sh *gwShard) armNextDone(v int64) {
	for {
		cur := sh.nextDone.Load()
		if v >= cur || sh.nextDone.CompareAndSwap(cur, v) {
			return
		}
	}
}

// release opportunistically drains due completions. TryLock keeps the
// fast path non-blocking: when the shard lock is held, the holder's own
// releaseLocked covers the drain.
func (sh *gwShard) release(st *gwState, now time.Duration) {
	if !sh.mu.TryLock() {
		return
	}
	defer sh.mu.Unlock()
	sh.releaseLocked(now)
}

// releaseLocked drains doneq into the completion heap and completes
// everything due by now: each finished container goes back to its
// function's fast channel when there is room and budget, else to the
// shard pool segment. Caller holds sh.mu.
func (sh *gwShard) releaseLocked(now time.Duration) {
	// Claim the watermark first: fast-path pushes racing this drain
	// re-arm it themselves, so a reclaimable completion is never left
	// behind an already-passed watermark.
	sh.nextDone.Store(math.MaxInt64)
	for {
		select {
		case r := <-sh.doneq:
			sh.heapPush(r)
		default:
			goto drained
		}
	}
drained:
	for len(sh.heap) > 0 && sh.heap[0].until <= now {
		r := sh.heapPop()
		c := r.c
		c.Complete(r.until)
		sh.runningKB.Add(-int64(c.MemoryMB * 1024))
		gf := sh.fns[c.FnID]
		// The fast layer and the pool segment share the shard's memory
		// budget dynamically: park in the fast channel when combined
		// parked memory stays within the share, else hand the container
		// to the pool (which enforces the same cap with eviction).
		if gf != nil && (sh.shareKB == 0 ||
			sh.fastKB.Load()+gf.memKB+int64(sh.pool.UsedMB()*1024) <= sh.shareKB) {
			select {
			case gf.fast <- c:
				sh.fastKB.Add(gf.memKB)
				continue
			default:
			}
		}
		sh.pool.Add(c, c2cost(gf, c), now)
	}
	if len(sh.heap) > 0 {
		sh.armNextDone(int64(sh.heap[0].until))
	}
}

// c2cost is the warm-copy value passed to cost-aware evictors: the
// container's function's full cold-start latency, as in the simulator.
func c2cost(gf *gwFn, c *container.Container) time.Duration {
	if gf != nil {
		return gf.fn.ColdStartTime()
	}
	return 0
}

// heapPush/heapPop maintain the min-heap of in-flight completions by
// completion time. Manual sifts keep the path allocation-free.
func (sh *gwShard) heapPush(r busyRec) {
	sh.heap = append(sh.heap, r)
	i := len(sh.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if sh.heap[p].until <= sh.heap[i].until {
			break
		}
		sh.heap[p], sh.heap[i] = sh.heap[i], sh.heap[p]
		i = p
	}
}

func (sh *gwShard) heapPop() busyRec {
	top := sh.heap[0]
	n := len(sh.heap) - 1
	sh.heap[0] = sh.heap[n]
	sh.heap[n] = busyRec{}
	sh.heap = sh.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && sh.heap[l].until < sh.heap[small].until {
			small = l
		}
		if r < n && sh.heap[r].until < sh.heap[small].until {
			small = r
		}
		if small == i {
			break
		}
		sh.heap[i], sh.heap[small] = sh.heap[small], sh.heap[i]
		i = small
	}
	return top
}

// Do is the in-process hot entry: schedule fnID at time at (< 0 means
// "now" per the gateway clock) with execution time exec (<= 0 means the
// function's mean). The steady-state warm path allocates nothing.
func (g *Gateway) Do(fnID int, at, exec time.Duration) (startup time.Duration, cold bool, err error) {
	st := g.state.Load()
	gf := st.byID[fnID]
	if gf == nil {
		return 0, false, errUnknownFn
	}
	if at < 0 {
		at = g.now(st)
	}
	if exec <= 0 {
		exec = gf.fn.Exec
	}
	_, s, _ := st.serve(gf, at, exec)
	return s.Total(), s.Cold, nil
}

// errUnknownFn is Do's not-found error, preallocated so the hot entry
// never formats.
var errUnknownFn = fmt.Errorf("api: unknown function")

// Invoke is the full in-process invocation: like POST /invoke but
// without HTTP framing.
func (g *Gateway) Invoke(fnID int, at, exec time.Duration) (InvokeResponse, error) {
	st := g.state.Load()
	gf := st.byID[fnID]
	if gf == nil {
		return InvokeResponse{}, fmt.Errorf("api: unknown function %d", fnID)
	}
	if at < 0 {
		at = g.now(st)
	}
	if exec <= 0 {
		exec = gf.fn.Exec
	}
	c, s, lvl := st.serve(gf, at, exec)
	res := platform.Result{ContainerID: c.ID, Cold: s.Cold, Level: lvl, Startup: s}
	return invokeResponse(int(st.seq.Add(1))-1, fnID, res, at), nil
}

func (g *Gateway) handleInvoke(w http.ResponseWriter, r *http.Request) {
	var req InvokeRequest
	if !decodeInvoke(w, r, &req) {
		return
	}
	at := time.Duration(-1)
	if req.AtMS > 0 {
		at = time.Duration(req.AtMS) * time.Millisecond
	}
	exec := time.Duration(req.ExecMS) * time.Millisecond
	out, err := g.Invoke(req.FnID, at, exec)
	if err != nil {
		httpError(w, http.StatusNotFound, "unknown function %d", req.FnID)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// GatewayStatsResponse extends the gateway's GET /stats body with the
// serving-layer counters the coarse server does not have.
type GatewayStatsResponse struct {
	StatsResponse
	Shards       int     `json:"shards"`
	FastHits     int64   `json:"fast_hits"`
	FastExpired  int64   `json:"fast_expired"`
	FastParkedMB float64 `json:"fast_parked_mb"`
}

// Stats aggregates serving statistics across shards. Startup quantiles
// merge the per-shard slow-path HDRs with the fast layer's counted
// re-hits (every fast hit costs exactly the function's L3 re-hit
// startup, so an O(1) RecordN per function reconstructs the full
// population).
func (g *Gateway) Stats() GatewayStatsResponse {
	st := g.state.Load()
	var out GatewayStatsResponse
	out.Policy = st.policy
	out.Shards = len(st.shards)
	var h perf.HDR
	for _, sh := range st.shards {
		sh.mu.Lock()
		h.Merge(&sh.startup)
		out.ColdStarts += sh.colds
		out.WarmStarts += sh.warms
		out.PolicyErrors += sh.policyErrs
		for i, n := range sh.byLevel {
			out.WarmByLevel[i] += n
		}
		ps := sh.pool.Stats()
		out.PoolUsedMB += sh.pool.UsedMB()
		out.PoolPeakMB += ps.PeakUsedMB
		out.Evictions += ps.Evictions
		out.Rejections += ps.Rejections
		out.Expirations += ps.Expirations
		sh.mu.Unlock()
		out.FastExpired += sh.fastExpired.Load()
		out.FastParkedMB += float64(sh.fastKB.Load()) / 1024
	}
	for _, gf := range st.byID { //mlcr:allow maprange histogram RecordN and counter sums are commutative; iteration order cannot change the aggregate
		if n := gf.fastHits.Load(); n > 0 {
			h.RecordN(gf.fastNS, uint64(n))
			out.FastHits += n
			out.WarmStarts += int(n)
			out.WarmByLevel[int(core.MatchL3)] += int(n)
		}
	}
	out.Invocations = int(h.Count())
	out.TotalStartupMS = time.Duration(h.Sum()).Milliseconds()
	if h.Count() > 0 {
		out.AvgStartupMS = time.Duration(h.Sum() / h.Count()).Milliseconds()
	}
	q := func(p float64) int64 { return time.Duration(h.Quantile(p)).Milliseconds() }
	out.StartupQuantiles = StartupQuantiles{P50: q(0.50), P95: q(0.95), P99: q(0.99)}
	out.PoolUsedMB += out.FastParkedMB
	out.ReuseByLevel = ReuseCounts{
		L1: out.WarmByLevel[1], L2: out.WarmByLevel[2], L3: out.WarmByLevel[3],
	}
	return out
}

func (g *Gateway) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, g.Stats())
}

// WriteMetricsText writes gateway metrics in Prometheus text exposition
// format — served by GET /metrics and flushed on graceful shutdown.
func (g *Gateway) WriteMetricsText(w io.Writer) error {
	s := g.Stats()
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("# HELP mlcr_gateway_invocations_total Invocations served.\n# TYPE mlcr_gateway_invocations_total counter\nmlcr_gateway_invocations_total %d\n", s.Invocations)
	p("# HELP mlcr_gateway_fast_hits_total Lock-free fast-layer L3 re-hits.\n# TYPE mlcr_gateway_fast_hits_total counter\nmlcr_gateway_fast_hits_total %d\n", s.FastHits)
	p("# HELP mlcr_gateway_cold_starts_total Cold starts.\n# TYPE mlcr_gateway_cold_starts_total counter\nmlcr_gateway_cold_starts_total %d\n", s.ColdStarts)
	p("# HELP mlcr_gateway_warm_starts_total Warm starts (all levels).\n# TYPE mlcr_gateway_warm_starts_total counter\nmlcr_gateway_warm_starts_total %d\n", s.WarmStarts)
	p("# HELP mlcr_gateway_evictions_total Pool evictions.\n# TYPE mlcr_gateway_evictions_total counter\nmlcr_gateway_evictions_total %d\n", s.Evictions)
	p("# HELP mlcr_gateway_pool_used_mb Warm memory parked (pool segments + fast layer).\n# TYPE mlcr_gateway_pool_used_mb gauge\nmlcr_gateway_pool_used_mb %g\n", s.PoolUsedMB)
	p("# HELP mlcr_gateway_shards Pool shards.\n# TYPE mlcr_gateway_shards gauge\nmlcr_gateway_shards %d\n", s.Shards)
	p("# HELP mlcr_gateway_startup_ms Startup latency quantiles in milliseconds.\n# TYPE mlcr_gateway_startup_ms summary\n")
	p("mlcr_gateway_startup_ms{quantile=\"0.5\"} %d\n", s.StartupQuantiles.P50)
	p("mlcr_gateway_startup_ms{quantile=\"0.95\"} %d\n", s.StartupQuantiles.P95)
	p("mlcr_gateway_startup_ms{quantile=\"0.99\"} %d\n", s.StartupQuantiles.P99)
	return err
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = g.WriteMetricsText(w)
}

func (g *Gateway) handleFunctions(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, functionCatalog(g.cfg.Functions))
}

func (g *Gateway) handlePool(w http.ResponseWriter, _ *http.Request) {
	st := g.state.Load()
	var out []PoolEntry
	for _, sh := range st.shards {
		sh.mu.Lock()
		sh.pool.RangeIdle(func(c *container.Container) bool {
			out = append(out, PoolEntry{
				ContainerID: c.ID, FnID: c.FnID, MemoryMB: c.MemoryMB,
				IdleSinceMS: int64(c.IdleSince / time.Millisecond), UseCount: c.UseCount,
			})
			return true
		})
		sh.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, out)
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Reset swaps in a fresh generation: new shards, pools and schedulers.
// In-flight requests complete against the old generation.
func (g *Gateway) Reset() { g.state.Store(g.buildState()) }

func (g *Gateway) handleReset(w http.ResponseWriter, _ *http.Request) {
	g.Reset()
	writeJSON(w, http.StatusOK, map[string]string{"status": "reset"})
}
