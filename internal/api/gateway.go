// The serving path: a sharded pool with a lock-free fast path for
// exact same-function L3 re-hits, in the shape of PoolX's three-layer
// hierarchy —
//
//	layer 1: per-function buffered channel, lock-free claim (L3 exact)
//	layer 2: per-shard mutexed pool segment + scheduling policy
//	layer 3: cold start (fresh sandbox, atomic ID allocation)
//
// Layer 1 is a cache in front of layer 2: a request that misses it
// takes the shard lock, drains due completions and probes layer 1 once
// more before it schedules. Functions hash onto shards; each shard's
// layer 2 is a platform.Platform, the simulator's own invocation
// lifecycle over the shard's pool segment, scheduler instance and
// memory share, so requests for different shards never contend and
// same-shard requests contend on one short critical section instead of
// a platform-wide lock. Completions are virtual-time driven, through
// the platform's own completion loop and under the simulator's tie
// rule: a container becomes reclaimable once its BusyUntil lies
// strictly before a request's instant, the next request that observes
// the shard's earliest-completion watermark (one atomic load) drains
// it, and equal-instant completions retire in start order. One shard
// without layer 1 serves every request through one platform.Invoke, so
// a single-threaded drive replays the simulator exactly; concurrent
// arrival interleaving is racy, so fingerprint determinism does not
// extend to concurrent drives, but every container still moves through
// the same lifecycle invariants, and throughput and latency are
// measured by bench/'s http_warm and http_churn workloads
// (DESIGN.md §15).
package api

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mlcr/internal/cluster"
	"mlcr/internal/container"
	"mlcr/internal/core"
	"mlcr/internal/obs"
	"mlcr/internal/obs/perf"
	"mlcr/internal/platform"
	"mlcr/internal/pool"
	"mlcr/internal/workload"
)

// GatewayConfig assembles a gateway.
type GatewayConfig struct {
	// Functions is the invocable catalog (IDs must be unique).
	Functions []*workload.Function
	// PoolCapacityMB is the total warm-pool budget, split evenly across
	// shards (<= 0 unlimited). Within a shard the budget is not shared:
	// the pool is capped at the full share on its own, and the fast
	// layer is checked against it only when a container parks (see
	// parkFast), so parked plus pooled memory can approach twice the
	// share (ROADMAP item 12).
	PoolCapacityMB float64
	// NewScheduler builds one scheduling-policy instance per shard
	// (fresh set on every reset).
	NewScheduler func() platform.Scheduler
	// NewEvictor builds one pool eviction policy per shard. When it is
	// nil or returns nil, platform.New pairs the shard's scheduler with
	// its default evictor, as it does for every platform.
	NewEvictor func() pool.Evictor
	// Clock supplies elapsed time (monotone offset from an arbitrary
	// origin). Nil means monotonic wall time since construction; tests
	// inject virtual clocks.
	Clock perf.Clock
	// Shards is the number of pool shards, default 16. Each function
	// sits on the shard the cluster's by-function router names.
	Shards int
	// FastDepth is the per-function fast-channel depth: how many idle
	// containers of one function can park in the lock-free layer. 0
	// means 4. A negative depth means no fast layer: the channels hold
	// nothing, so every request goes through its shard's platform.
	FastDepth int
	// Observe gives the shard platform an observer per generation —
	// trace recorder and a phase profiler on the gateway clock — serves
	// /trace and /audit (a reduction of the trace) from it and adds the
	// shard's run series and phase summaries to /metrics. The recorder
	// grows with every invocation. It requires Shards 1 and a negative
	// FastDepth, so that every decision passes through the observed
	// platform.
	Observe bool
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

// gwShard owns one slice of the warm pool. Layer 2 is plat, the
// simulator's own invocation lifecycle over the shard's scheduler,
// evictor and memory share, guarded by mu; the fields after fns are the
// lock-free fast layer's shared state.
type gwShard struct {
	mu   sync.Mutex
	plat *platform.Platform
	inv  workload.Invocation // slow-path scratch (never escapes the lock)
	// park is parkFast bound once, so a drain passes it to the platform
	// without allocating.
	park func(*container.Container) bool

	fns map[int]*gwFn // this shard's functions

	// Lock-free completion protocol: the fast path hands busy containers
	// to the platform through doneq (a container's BusyUntil does not
	// change while it is busy, so the container is its own completion
	// record) and publishes the earliest completion time in nextDone (ns;
	// MaxInt64 = none known). Any request that observes nextDone < now
	// tries to drain — one TryLock, never a blocking wait on the fast path.
	doneq    chan *container.Container
	nextDone atomic.Int64

	fastKB      atomic.Int64  // memory parked in fast channels
	shareKB     int64         // shard memory share (pool + fast combined); 0 = unlimited
	fastTTL     time.Duration // the evictor's TTL, read once; 0 = no bound
	fastExpired atomic.Int64  // stale fast-layer discards
}

// gwState is one immutable-topology generation of the gateway. Reset
// swaps the whole state atomically; requests in flight on the old
// generation finish against it.
type gwState struct {
	byID   map[int]*gwFn // immutable after build
	shards []*gwShard
	epoch  time.Duration // clock() at reset
	obs    *obs.Observer // the one shard's observer; nil unless Observe
	nextID atomic.Int64  // container IDs
	seq    atomic.Int64  // response sequence numbers
}

// Gateway is the HTTP serving layer. Safe for arbitrary concurrent use.
type Gateway struct {
	cfg   GatewayConfig
	clock perf.Clock
	state atomic.Pointer[gwState]
	mux   *http.ServeMux
}

// NewGateway builds a gateway.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if _, err := catalogByID(cfg.Functions, cfg.NewScheduler); err != nil {
		return nil, err
	}
	if cfg.Observe && (cfg.Shards != 1 || cfg.FastDepth >= 0) {
		return nil, fmt.Errorf("api: Observe requires Shards 1 and a negative FastDepth")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	if cfg.FastDepth == 0 {
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
	if cfg.Observe {
		mux.HandleFunc("GET /trace", g.handleTrace)
		mux.HandleFunc("GET /audit", g.handleAudit)
	}
	g.mux = mux
	return g, nil
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// buildState constructs a fresh generation: one platform per shard over
// its pool segment and scheduler, and the function→shard map, which the
// cluster's by-function router draws.
func (g *Gateway) buildState() *gwState {
	cfg := g.cfg
	st := &gwState{
		byID:   make(map[int]*gwFn, len(cfg.Functions)),
		shards: make([]*gwShard, cfg.Shards),
		epoch:  g.clock(),
	}
	if cfg.Observe {
		st.obs = obs.NewObserver()
		st.obs.Perf = perf.New(func() time.Duration { return g.now(st) })
	}
	share := 0.0
	if cfg.PoolCapacityMB > 0 {
		share = cfg.PoolCapacityMB / float64(cfg.Shards)
	}
	newID := st.newID
	for i := range st.shards {
		// One NewScheduler call, then one NewEvictor call, per shard and
		// in this order: bench/'s per-layer tracer pairs them by order.
		sched := cfg.NewScheduler()
		var ev pool.Evictor
		if cfg.NewEvictor != nil {
			ev = cfg.NewEvictor()
		}
		sh := &gwShard{
			plat:  platform.New(platform.Config{PoolCapacityMB: share, Evictor: ev, NewID: newID, Obs: st.obs}, sched),
			fns:   make(map[int]*gwFn),
			doneq: make(chan *container.Container, 1024),
		}
		sh.fastTTL = sh.plat.Pool().Evictor().TTL()
		// A shard serves an unbounded stream: keep aggregates, not samples.
		res := sh.plat.Results()
		res.Metrics.SetRetainSamples(false)
		res.PoolSeries.SetRetainPoints(false)
		sh.park = sh.parkFast
		if share > 0 {
			sh.shareKB = int64(share * 1024)
		}
		sh.nextDone.Store(math.MaxInt64)
		st.shards[i] = sh
	}
	router := cluster.MustNewRouter("by-function", cluster.RouterConfig{Workers: cfg.Shards})
	router.Begin(workload.Workload{Functions: cfg.Functions})
	for i, f := range cfg.Functions {
		sh := st.shards[router.Route(0, i, &workload.Invocation{Fn: f})]
		gf := &gwFn{
			fn:        f,
			shard:     sh,
			fast:      make(chan *container.Container, max(cfg.FastDepth, 0)),
			fastStart: container.Estimate(f, core.MatchL3, false),
			memKB:     int64(f.MemoryMB * 1024),
		}
		gf.fastNS = gf.fastStart.Total().Nanoseconds()
		st.byID[f.ID] = gf
		sh.fns[f.ID] = gf
	}
	return st
}

// now returns the gateway's elapsed time since the current generation's
// reset.
func (g *Gateway) now(st *gwState) time.Duration { return g.clock() - st.epoch }

// serve is the gateway's per-invocation hot path. It returns the
// outcome and the instant the invocation was served at: now on the
// fast path, the shard's clock when the slow path finds it later. The
// steady-state warm path (fast-layer claim, completion hand-off,
// shard-pool reuse) performs zero heap allocations, pinned by
// TestGatewayWarmSteadyStateAllocs.
func (st *gwState) serve(gf *gwFn, now, exec time.Duration) (platform.Result, time.Duration) {
	sh := gf.shard
	// Reclaim any completions due before now. One atomic load in the
	// common "nothing due" case; TryLock so the fast path never blocks —
	// a lock-holding slow path drains on our behalf.
	if sh.nextDone.Load() < int64(now) {
		sh.release(now)
	}
	// Layer 1: lock-free claim of an exact same-function L3 re-hit.
	if c, s := st.claim(gf, now, exec); c != nil {
		sh.finish(c, gf.fn)
		return platform.Result{ContainerID: c.ID, Level: core.MatchL3, Startup: s}, now
	}
	return st.slow(gf, now, exec)
}

// claim takes a container of gf's function from its fast channel and
// reuses it as an exact L3 re-hit, discarding containers idle longer
// than the shard evictor's TTL, the bound Pool.Expire applies to the
// shard pool. It returns nil when the channel holds no fresh one. The
// caller hands the claimed container to the shard's platform.
func (st *gwState) claim(gf *gwFn, now, exec time.Duration) (*container.Container, container.Startup) {
	sh := gf.shard
	for {
		select {
		case c := <-gf.fast:
			sh.fastKB.Add(-gf.memKB)
			if sh.fastTTL > 0 && c.IdleFor(now) > sh.fastTTL {
				c.Kill()
				sh.fastExpired.Add(1)
				continue
			}
			inv := workload.Invocation{Fn: gf.fn, Arrival: now, Exec: exec}
			s := c.Reuse(&inv, core.MatchL3, now, nil)
			gf.fastHits.Add(1)
			return c, s
		default:
			return nil, container.Startup{}
		}
	}
}

// slow serves one invocation through layers 2 and 3, the shard's
// platform: drain the fast path's hand-offs into it, retire what is due
// before now, claim from layer 1 once more, then Invoke. The shard's
// time is the platform's clock, which never moves backwards, so a
// request that arrives behind it is served at the clock, and slow
// returns that instant. The lock is released by defer: a scheduler or
// evictor that panics fails its own request, not every later request to
// the shard.
func (st *gwState) slow(gf *gwFn, now, exec time.Duration) (platform.Result, time.Duration) {
	sh := gf.shard
	sh.mu.Lock()
	defer sh.mu.Unlock()
	now = max(now, sh.plat.Now())
	sh.releaseLocked(now)
	// The drain may have parked a container of this very function in the
	// fast layer: the slow path falls through it before scheduling. The
	// claim goes to the platform here, under the lock, not through
	// finish, whose full-doneq branch takes the lock.
	var res platform.Result
	if c, s := st.claim(gf, now, exec); c != nil {
		sh.plat.Track(c, gf.fn)
		res = platform.Result{ContainerID: c.ID, Level: core.MatchL3, Startup: s}
	} else {
		sh.inv = workload.Invocation{Seq: sh.plat.Results().Metrics.Count(), Fn: gf.fn, Arrival: now, Exec: exec}
		res = sh.plat.Invoke(&sh.inv)
	}
	// Everything due before now has retired, so this Retire only reads
	// the earliest completion, which the new one may have become.
	sh.armNextDone(int64(sh.plat.Retire(now, nil)))
	return res, now
}

// newID hands out the next container ID.
func (st *gwState) newID() int { return int(st.nextID.Add(1)) }

// finish hands a fast-path claim's completion to the shard without
// taking the lock: enqueue on doneq and publish the completion
// watermark. A full doneq (pathological backlog) falls back to the
// locked platform. until is read before the send: once sent, the
// drainer owns c.
func (sh *gwShard) finish(c *container.Container, fn *workload.Function) {
	until := c.BusyUntil
	select {
	case sh.doneq <- c:
	default:
		sh.mu.Lock()
		defer sh.mu.Unlock()
		sh.plat.Track(c, fn)
	}
	sh.armNextDone(int64(until))
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
func (sh *gwShard) release(now time.Duration) {
	if !sh.mu.TryLock() {
		return
	}
	defer sh.mu.Unlock()
	sh.releaseLocked(now)
}

// releaseLocked hands doneq's containers to the platform and retires
// every completion due strictly before now, the simulator's tie rule
// (DESIGN.md §10): a completion at now runs after the request at now.
// Each finished container goes to parkFast before the pool. Caller
// holds sh.mu.
func (sh *gwShard) releaseLocked(now time.Duration) {
	// Claim the watermark first: fast-path pushes racing this drain
	// re-arm it themselves, so a reclaimable completion is never left
	// behind an already-passed watermark.
	sh.nextDone.Store(math.MaxInt64)
	// Only the lock holder receives from doneq, so none of these
	// receives blocks; later sends re-arm the watermark themselves.
	for n := len(sh.doneq); n > 0; n-- {
		c := <-sh.doneq
		sh.plat.Track(c, sh.fns[c.FnID].fn)
	}
	sh.armNextDone(int64(sh.plat.Retire(now, sh.park)))
}

// parkFast puts a finished container back in its function's fast
// channel when there is room and layer 1 plus the pool stays within the
// shard's share, else the platform offers it to the pool. The check
// holds only at parking time: the pool enforces the full share on its
// own, so later pool admissions can push parked plus pooled memory
// towards twice the share (ROADMAP items 5(c) and 12).
func (sh *gwShard) parkFast(c *container.Container) bool {
	gf := sh.fns[c.FnID]
	if sh.shareKB != 0 && sh.fastKB.Load()+gf.memKB+int64(sh.plat.Pool().UsedMB()*1024) > sh.shareKB {
		return false
	}
	select {
	case gf.fast <- c:
		sh.fastKB.Add(gf.memKB)
		return true
	default:
		return false
	}
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
	res, _ := st.serve(gf, at, exec)
	return res.Startup.Total(), res.Cold, nil
}

// errUnknownFn is Do's not-found error, preallocated so the hot entry
// never formats.
var errUnknownFn = fmt.Errorf("api: unknown function")

// Invoke is the full in-process invocation: like POST /invoke but
// without HTTP framing. VirtualTimeMS reports the instant the
// invocation was served at, which is later than at when the shard's
// clock is.
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
	res, served := st.serve(gf, at, exec)
	return invokeResponse(int(st.seq.Add(1))-1, fnID, res, served), nil
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

// GatewayStatsResponse is the GET /stats body: the shards' run counters
// summed, plus the fast layer's.
type GatewayStatsResponse struct {
	Policy           string           `json:"policy"`
	Invocations      int              `json:"invocations"`
	TotalStartupMS   int64            `json:"total_startup_ms"`
	AvgStartupMS     int64            `json:"avg_startup_ms"`
	StartupQuantiles StartupQuantiles `json:"startup_quantiles_ms"`
	ColdStarts       int              `json:"cold_starts"`
	WarmStarts       int              `json:"warm_starts"`
	ReuseByLevel     ReuseCounts      `json:"reuse_by_level"`
	// WarmByLevel counts invocations by match level, as
	// metrics.Collector.ByLevel does: index 0 holds the cold starts.
	WarmByLevel [4]int  `json:"warm_by_level"`
	PoolUsedMB  float64 `json:"pool_used_mb"`
	PoolPeakMB  float64 `json:"pool_peak_mb"`
	Evictions   int     `json:"evictions"`
	Rejections  int     `json:"rejections"`
	Expirations int     `json:"expirations"`
	// PolicyErrors counts scheduler choices that named no reusable
	// container and were served as cold starts instead.
	PolicyErrors int     `json:"policy_errors"`
	Shards       int     `json:"shards"`
	FastHits     int64   `json:"fast_hits"`
	FastExpired  int64   `json:"fast_expired"`
	FastParkedMB float64 `json:"fast_parked_mb"`
}

// Stats aggregates serving statistics across shards: each shard
// platform's RunResult, plus the fast layer's counted re-hits. Startup
// quantiles merge the shards' startup HDRs with those re-hits (every
// fast hit costs exactly the function's L3 re-hit startup, so an O(1)
// RecordN per function reconstructs the full population).
func (g *Gateway) Stats() GatewayStatsResponse {
	st := g.state.Load()
	var out GatewayStatsResponse
	out.Shards = len(st.shards)
	var h perf.HDR
	for _, sh := range st.shards {
		sh.mu.Lock()
		res := sh.plat.Results()
		res.Metrics.MergeStartupInto(&h)
		out.Policy = res.Policy
		out.ColdStarts += res.Metrics.ColdStarts()
		out.WarmStarts += res.Metrics.WarmStarts()
		out.PolicyErrors += res.PolicyErrors
		for i, n := range res.Metrics.ByLevel() {
			out.WarmByLevel[i] += n
		}
		ps := res.PoolStats
		out.PoolUsedMB += sh.plat.Pool().UsedMB()
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
// format — served by GET /metrics and flushed on graceful shutdown —
// through obs.WritePrometheus: the gateway's series read off Stats, and
// for an observed gateway its shard platform's (RunResult.ExportMetrics)
// and phase profiler's (obs.PhaseMetrics), both read under the shard
// lock.
func (g *Gateway) WriteMetricsText(w io.Writer) error {
	st := g.state.Load()
	s := g.Stats()
	counter := func(name, help string, n int64) obs.Metric {
		return obs.Metric{Name: name, Help: help, Type: obs.TypeCounter, Value: float64(n)}
	}
	startupMS := func(q string, ms int64) obs.Metric {
		return obs.Metric{Name: `mlcr_gateway_startup_ms{quantile="` + q + `"}`,
			Help: "Startup latency quantiles in milliseconds.", Type: obs.TypeSummary, Value: float64(ms)}
	}
	ms := []obs.Metric{
		counter("mlcr_gateway_invocations_total", "Invocations served.", int64(s.Invocations)),
		counter("mlcr_gateway_fast_hits_total", "Lock-free fast-layer L3 re-hits.", s.FastHits),
		counter("mlcr_gateway_cold_starts_total", "Cold starts.", int64(s.ColdStarts)),
		counter("mlcr_gateway_warm_starts_total", "Warm starts (all levels).", int64(s.WarmStarts)),
		counter("mlcr_gateway_evictions_total", "Pool evictions.", int64(s.Evictions)),
		{Name: "mlcr_gateway_pool_used_mb", Help: "Warm memory parked (pool segments + fast layer).", Type: obs.TypeGauge, Value: s.PoolUsedMB},
		{Name: "mlcr_gateway_shards", Help: "Pool shards.", Type: obs.TypeGauge, Value: float64(s.Shards)},
		startupMS("0.5", s.StartupQuantiles.P50),
		startupMS("0.95", s.StartupQuantiles.P95),
		startupMS("0.99", s.StartupQuantiles.P99),
	}
	if st.obs != nil {
		sh := st.shards[0]
		sh.mu.Lock()
		ms = append(ms, sh.plat.Results().ExportMetrics()...)
		ms = append(ms, obs.PhaseMetrics(st.obs.Perf)...)
		sh.mu.Unlock()
	}
	return obs.WritePrometheus(w, ms)
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = g.WriteMetricsText(w)
}

// errNotObserved is WriteTrace's answer for a gateway built without
// Observe.
var errNotObserved = errors.New("api: gateway built without Observe records no trace")

// WriteTrace writes the current generation's Chrome trace_event JSON —
// served by GET /trace and flushed on graceful shutdown. It needs a
// gateway built with Observe.
func (g *Gateway) WriteTrace(w io.Writer) error {
	o := g.state.Load().obs
	if o == nil {
		return errNotObserved
	}
	return o.Trace.WriteChromeTrace(w)
}

// handleTrace serves the run's trace in Chrome trace_event JSON,
// openable in chrome://tracing or Perfetto.
func (g *Gateway) handleTrace(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = g.WriteTrace(w)
}

// handleAudit serves the scheduler decision audit log as JSONL, derived
// from the generation's trace.
func (g *Gateway) handleAudit(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/jsonl")
	_ = g.state.Load().obs.Trace.WriteAuditJSONL(w)
}

func (g *Gateway) handleFunctions(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, functionCatalog(g.cfg.Functions))
}

func (g *Gateway) handlePool(w http.ResponseWriter, _ *http.Request) {
	st := g.state.Load()
	var out []PoolEntry
	for _, sh := range st.shards {
		sh.mu.Lock()
		sh.plat.Pool().RangeIdle(func(c *container.Container) bool {
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

// Reset swaps in a fresh generation: new shards, pools and schedulers
// (and a fresh observer when observed). In-flight requests complete
// against the old generation.
func (g *Gateway) Reset() { g.state.Store(g.buildState()) }

func (g *Gateway) handleReset(w http.ResponseWriter, _ *http.Request) {
	g.Reset()
	writeJSON(w, http.StatusOK, map[string]string{"status": "reset"})
}
