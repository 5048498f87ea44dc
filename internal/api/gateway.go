// The serving path: a sharded pool with a per-function fast layer for
// exact same-function L3 re-hits, in the shape of PoolX's three-layer
// hierarchy —
//
//	layer 1: per-function FIFO fast channel of parked idle containers (L3 exact)
//	layer 2: the shard's pool segment + scheduling policy
//	layer 3: cold start (fresh sandbox, atomic ID allocation)
//
// Functions hash onto shards, and each shard is a platform.Platform,
// the simulator's own invocation lifecycle over the shard's pool
// segment, scheduler instance and memory share, plus the layer-1
// channels of its functions. Every request is one critical section on
// its function's shard: take the lock, move to the shard's clock if the
// request is behind it, retire the completions due strictly before the
// request (the simulator's tie rule: equal-instant completions retire
// in start order, and a completion at the request's instant runs after
// it), offering each finished container to layer 1 before the pool,
// then claim from the function's fast channel or, when it holds nothing
// fresh, schedule through the platform. Requests for different shards
// never contend. One shard without layer 1 serves every request through
// one platform.Invoke, so a single-threaded drive replays the simulator
// exactly; concurrent arrival interleaving is racy, so fingerprint
// determinism does not extend to concurrent drives, but each shard's
// decisions are one ordered sequence on its clock, and throughput and
// latency are measured by bench/'s http_warm and http_churn workloads
// (DESIGN.md §15).
package api

import (
	"errors"
	"fmt"
	"io"
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
	// the pool is capped at the full share on its own, and layer 1 is
	// checked against it only when a container parks (see parkFast), so
	// parked plus pooled memory can exceed the share, up to twice it
	// (TestGatewayFastLayerOverrunsShare; ROADMAP item 12).
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
	// containers of one function can park in layer 1. 0 means 4. A
	// negative depth means no fast layer: the channels hold nothing, so
	// every request is scheduled by its shard's platform.
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
// its layer-1 fast channel and its memory.
type gwFn struct {
	fn    *workload.Function
	shard *gwShard
	fast  chan *container.Container
	memKB int64
}

// gwShard owns one slice of the warm pool: plat, the simulator's own
// invocation lifecycle over the shard's scheduler, evictor and memory
// share, and the layer-1 fast channels of fns. mu guards all of it,
// the channels included.
type gwShard struct {
	mu   sync.Mutex
	plat *platform.Platform
	inv  workload.Invocation // the request being served (never escapes the lock)
	// park is parkFast bound once, so a drain passes it to the platform
	// without allocating.
	park func(*container.Container) bool

	fns map[int]*gwFn // this shard's functions

	shareKB     int64         // shard memory share (pool + fast combined); 0 = unlimited
	fastTTL     time.Duration // the evictor's TTL, read once; 0 = no bound
	fastKB      int64         // memory parked in fast channels
	fastHits    int           // layer-1 claims
	fastExpired int           // stale fast-layer discards
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
			plat: platform.New(platform.Config{PoolCapacityMB: share, Evictor: ev, NewID: newID, Obs: st.obs}, sched),
			fns:  make(map[int]*gwFn),
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
		st.shards[i] = sh
	}
	router := cluster.MustNewRouter("by-function", cluster.RouterConfig{Workers: cfg.Shards})
	router.Begin(workload.Workload{Functions: cfg.Functions})
	for i, f := range cfg.Functions {
		sh := st.shards[router.Route(i, &workload.Invocation{Fn: f})]
		gf := &gwFn{
			fn:    f,
			shard: sh,
			fast:  make(chan *container.Container, max(cfg.FastDepth, 0)),
			memKB: int64(f.MemoryMB * 1024),
		}
		st.byID[f.ID] = gf
		sh.fns[f.ID] = gf
	}
	return st
}

// now returns the gateway's elapsed time since the current generation's
// reset.
func (g *Gateway) now(st *gwState) time.Duration { return g.clock() - st.epoch }

// serve is the gateway's per-invocation path, one critical section on
// gf's shard. The shard's time is the platform's clock, which never
// moves backwards, so a request that arrives behind it is served at the
// clock, and serve returns the instant it served at. Completions due
// strictly before that instant retire first, each offered to layer 1
// before the pool; then a fresh container in gf's fast channel serves
// as an exact L3 re-hit, recorded by platform.Track, and otherwise the
// platform schedules the request. The steady-state warm path performs
// zero heap allocations, pinned by TestGatewayWarmSteadyStateAllocs.
// The lock is released by defer: a scheduler or evictor that panics
// fails its own request, not every later request to the shard.
func (st *gwState) serve(gf *gwFn, now, exec time.Duration) (platform.Result, time.Duration) {
	sh := gf.shard
	sh.mu.Lock()
	defer sh.mu.Unlock()
	now = max(now, sh.plat.Now())
	sh.plat.Retire(now, sh.park)
	sh.inv = workload.Invocation{Seq: sh.plat.Results().Metrics.Count(), Fn: gf.fn, Arrival: now, Exec: exec}
	if c := sh.claim(gf, now); c != nil {
		res := platform.Result{ContainerID: c.ID, Level: core.MatchL3, Startup: c.Reuse(&sh.inv, core.MatchL3, now, nil)}
		sh.plat.Track(c, &sh.inv, res)
		return res, now
	}
	return sh.plat.Invoke(&sh.inv), now
}

// claim takes a container of gf's function from its fast channel,
// discarding containers idle longer than the shard evictor's TTL, the
// bound Pool.Expire applies to the shard pool. It returns nil when the
// channel holds no fresh one. Caller holds sh.mu.
func (sh *gwShard) claim(gf *gwFn, now time.Duration) *container.Container {
	for {
		select {
		case c := <-gf.fast:
			sh.fastKB -= gf.memKB
			if sh.fastTTL > 0 && c.IdleFor(now) > sh.fastTTL {
				c.Kill()
				sh.fastExpired++
				continue
			}
			sh.fastHits++
			return c
		default:
			return nil
		}
	}
}

// newID hands out the next container ID.
func (st *gwState) newID() int { return int(st.nextID.Add(1)) }

// parkFast puts a finished container back in its function's fast
// channel when there is room and layer 1 plus the pool stays within the
// shard's share, else the platform offers it to the pool. The check
// holds only at parking time: the pool enforces the full share on its
// own, so later pool admissions can push parked plus pooled memory
// towards twice the share (ROADMAP items 5(c) and 12). Caller holds
// sh.mu.
func (sh *gwShard) parkFast(c *container.Container) bool {
	gf := sh.fns[c.FnID]
	if sh.shareKB != 0 && sh.fastKB+gf.memKB+int64(sh.plat.Pool().UsedMB()*1024) > sh.shareKB {
		return false
	}
	select {
	case gf.fast <- c:
		sh.fastKB += gf.memKB
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

// Stats aggregates serving statistics across the current generation's
// shards.
func (g *Gateway) Stats() GatewayStatsResponse { return g.state.Load().stats() }

// stats sums each shard platform's RunResult, which counts every
// invocation the shard served, layer-1 claims included, and the fast
// layer's own counters, each shard read under its lock. Startup
// quantiles merge the shards' startup HDRs.
func (st *gwState) stats() GatewayStatsResponse {
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
		out.FastHits += int64(sh.fastHits)
		out.FastExpired += int64(sh.fastExpired)
		out.FastParkedMB += float64(sh.fastKB) / 1024
		sh.mu.Unlock()
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

// WriteMetricsText writes the current generation's metrics in
// Prometheus text exposition format — served by GET /metrics and
// flushed on graceful shutdown.
func (g *Gateway) WriteMetricsText(w io.Writer) error { return g.state.Load().writeMetrics(w) }

// writeMetrics writes one generation's metrics through
// obs.WritePrometheus: the gateway's series read off its stats, and for
// an observed gateway its shard platform's (RunResult.ExportMetrics)
// and phase profiler's (obs.PhaseMetrics), both read under the shard
// lock.
func (st *gwState) writeMetrics(w io.Writer) error {
	s := st.stats()
	counter := func(name, help string, n int64) obs.Metric {
		return obs.Metric{Name: name, Help: help, Type: obs.TypeCounter, Value: float64(n)}
	}
	startupMS := func(q string, ms int64) obs.Metric {
		return obs.Metric{Name: `mlcr_gateway_startup_ms{quantile="` + q + `"}`,
			Help: "Startup latency quantiles in milliseconds.", Type: obs.TypeSummary, Value: float64(ms)}
	}
	ms := []obs.Metric{
		counter("mlcr_gateway_invocations_total", "Invocations served.", int64(s.Invocations)),
		counter("mlcr_gateway_fast_hits_total", "Layer-1 fast-channel L3 re-hits.", s.FastHits),
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
