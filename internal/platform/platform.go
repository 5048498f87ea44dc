// Package platform simulates an OpenWhisk-style serverless platform: a
// stream of function invocations arrives, a pluggable scheduler decides
// for each one whether to reuse a warm container from the fix-sized pool
// or to cold-start a fresh sandbox, and finished containers are offered
// back to the pool (Section III-A, Figure 4).
//
// The simulation is a deterministic discrete-event run over virtual time;
// identical inputs produce identical outputs bit-for-bit.
package platform

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"mlcr/internal/container"
	"mlcr/internal/core"
	"mlcr/internal/evict"
	"mlcr/internal/metrics"
	"mlcr/internal/obs"
	"mlcr/internal/obs/perf"
	"mlcr/internal/pool"
	"mlcr/internal/sim"
	"mlcr/internal/workload"
)

// ColdStart is the scheduler decision value meaning "create a new
// container" rather than reusing a pooled one.
const ColdStart = -1

// rateAlpha is the smoothing factor of the arrival-rate EMA exposed to
// schedulers (Env.Rate).
const rateAlpha = 0.2

// Env is the read-only view of the platform a scheduler sees when making
// a decision. It corresponds to the paper's DRL "state": cluster-wide
// information plus per-container details reachable through Pool.
type Env struct {
	// Now is the current virtual time (the arrival being scheduled).
	Now time.Duration
	// Pool is the warm-container pool; schedulers may inspect idle
	// containers but must not mutate the pool.
	Pool *pool.Pool
	// RunningMB is the memory held by currently busy containers.
	RunningMB float64
	// Seen is the number of invocations scheduled so far in this run.
	Seen int
	// PrevArrival is the arrival time of the previous invocation (zero
	// for the first), exposing inter-arrival gaps to learned schedulers.
	PrevArrival time.Duration
	// Rate is a smoothed arrival-rate estimate in invocations/second.
	Rate float64
}

// Result reports the realized outcome of one scheduling decision.
type Result struct {
	// ContainerID is the serving container.
	ContainerID int
	// Cold reports whether a fresh sandbox was created.
	Cold bool
	// Level is the match level of a warm start (NoMatch when Cold).
	Level core.MatchLevel
	// Startup is the startup phase breakdown; Startup.Total() is the
	// latency the paper's figures aggregate.
	Startup container.Startup
}

// Scheduler decides container reuse for each invocation. Implementations
// must be deterministic; all randomness must come from seeded sources.
type Scheduler interface {
	// Name identifies the policy in reports.
	Name() string
	// Schedule returns the ID of an idle pooled container to reuse, or
	// ColdStart. Any other value — an ID not in the pool, or a container
	// whose image matches the invocation at no level — is a policy
	// error: Apply serves the invocation as a cold start, leaves the
	// pool untouched, and the driver counts it (RunResult.PolicyErrors).
	Schedule(env Env, inv *workload.Invocation) int
	// OnResult is called immediately after the decision is applied,
	// with the realized startup latency (the DRL reward signal) — the
	// cold start actually served when the choice was a policy error.
	OnResult(env Env, inv *workload.Invocation, res Result)
}

// Config parameterizes a platform run.
type Config struct {
	// PoolCapacityMB is the warm pool size; <= 0 means unlimited (used
	// to calibrate the Loose setting).
	PoolCapacityMB float64
	// Evictor is the pool eviction policy. Nil pairs the scheduler with
	// its own default: the Evictor() it declares when that is non-nil,
	// else LRU. The cluster's workers and the gateway's shards take the
	// same pairing this way.
	Evictor pool.Evictor
	// NewID, when non-nil, hands out container IDs; the gateway shares
	// one source across its shards so IDs stay unique among them. Nil
	// numbers the platform's own containers 1, 2, ….
	NewID func() int
	// Obs, when non-nil, observes the run: trace events (from which the
	// scheduler decision audit derives) and phase timings (see
	// internal/obs). Nil disables all instrumentation at near-zero
	// cost. Metrics need no observer: RunResult.ExportMetrics derives
	// them from the result.
	Obs *obs.Observer
}

// RunResult aggregates everything a platform run produced.
type RunResult struct {
	Policy string
	// Metrics holds per-invocation samples and aggregates.
	Metrics metrics.Collector
	// PoolStats reports evictions, rejections, expiries and peak pool
	// memory (Fig 10).
	PoolStats pool.Stats
	// Evictor names the pool's eviction policy.
	Evictor string
	// PoolUsedMB and RunningMB are the memory held by idle pooled and
	// by busy containers when the result was read: after Drain, the
	// end of the run.
	PoolUsedMB, RunningMB float64
	// CleanerOps counts volume operations by the container cleaner.
	CleanerOps container.VolumeOps
	// PeakRunningMB is the highest memory concurrently held by busy
	// containers.
	PeakRunningMB float64
	// PeakAliveMB is the highest memory held by all alive containers —
	// busy plus warm-pooled. With an unlimited pool this is the
	// calibration value for the paper's Loose setting ("the peak memory
	// size of all running containers in the cluster", where keep-alive
	// containers remain running).
	PeakAliveMB float64
	// PoolSeries tracks pool memory over time.
	PoolSeries metrics.Series
	// ContainersCreated counts cold-started sandboxes.
	ContainersCreated int
	// PolicyErrors counts scheduler choices Apply could not honour and
	// served as cold starts instead (see Scheduler.Schedule).
	PolicyErrors int
}

// finishRec is one in-flight completion: the busy container and the
// function it serves. It is stored by value in the busy queue.
type finishRec struct {
	c  *container.Container
	fn *workload.Function
}

// Platform wires the simulator together for one run.
type Platform struct {
	cfg     Config
	sched   Scheduler
	pool    *pool.Pool
	cleaner *container.Cleaner
	obs     *obs.Observer

	// now is the virtual clock. Between arrivals the only thing that
	// happens is a busy container finishing, so busy, ordered by
	// BusyUntil and then start order, is the whole event queue
	// (DESIGN.md §10).
	now  time.Duration
	busy sim.Queue[finishRec]

	runningMB float64
	seen      int
	prevArr   time.Duration
	rate      workload.RateEMA
	ran       bool

	// prof is the observer's phase profiler (nil when perf is off),
	// cached so hot paths pay one field read per scope.
	prof *perf.Profiler

	res RunResult
}

// New builds a platform with the given configuration and scheduler.
func New(cfg Config, sched Scheduler) *Platform {
	if sched == nil {
		panic("platform: nil scheduler")
	}
	ev := cfg.Evictor
	if ev == nil {
		ev = defaultEvictor(sched)
	}
	if cfg.NewID == nil {
		n := 0
		cfg.NewID = func() int { n++; return n }
	}
	p := &Platform{
		cfg:     cfg,
		sched:   sched,
		pool:    pool.New(cfg.PoolCapacityMB, ev),
		cleaner: &container.Cleaner{},
		obs:     cfg.Obs,
		rate:    workload.RateEMA{Alpha: rateAlpha},
	}
	p.res.Policy = sched.Name()
	p.res.Evictor = ev.Name()
	p.prof = cfg.Obs.Profiler()
	// Schedulers that can time interior phases (the MLCR scheduler's
	// Q-network forward pass) take the run's profiler through this
	// optional interface; a nil profiler detaches any previous one so
	// cloned schedulers never record into a dead run.
	if pa, ok := sched.(interface{ SetProfiler(*perf.Profiler) }); ok {
		pa.SetProfiler(p.prof)
	}
	p.wireObservability()
	return p
}

// defaultEvictor is the eviction policy a scheduler pairs with: the one
// it declares (KeepAlive's TTL, FaasCache's greedy-dual), LRU otherwise.
func defaultEvictor(s Scheduler) pool.Evictor {
	if d, ok := s.(interface{ Evictor() pool.Evictor }); ok {
		if ev := d.Evictor(); ev != nil {
			return ev
		}
	}
	return evict.NewLRU()
}

// Pool exposes the warm pool (read-only use by callers/tests).
func (p *Platform) Pool() *pool.Pool { return p.pool }

// Run replays the workload to completion and returns the results. A
// platform instance runs exactly once: scheduler, pool and metrics
// state carry the finished run, so a second Run would silently produce
// results contaminated by the first — it panics instead.
func (p *Platform) Run(w workload.Workload) *RunResult {
	if p.ran {
		panic("platform: Run called twice on one Platform; build a fresh instance per run")
	}
	p.ran = true
	// Validate guarantees non-decreasing arrivals, which step requires.
	if err := w.Validate(); err != nil {
		panic(fmt.Sprintf("platform: %v", err))
	}
	// One metrics sample per invocation and at most two pool-series
	// points (reuse + completion); reserving up front removes the
	// repeated buffer-doubling copies from trace-scale runs.
	p.res.Metrics.Reserve(len(w.Invocations))
	p.res.PoolSeries.Reserve(2 * len(w.Invocations))
	for i := range w.Invocations {
		p.step(&w.Invocations[i])
	}
	return p.Drain()
}

func (p *Platform) env() Env {
	return Env{
		Now:         p.now,
		Pool:        p.pool,
		RunningMB:   p.runningMB,
		Seen:        p.seen,
		PrevArrival: p.prevArr,
		Rate:        p.rate.Rate(),
	}
}

// Invoke processes a single invocation interactively, exactly as Run
// would at the same point of a workload, and returns its outcome.
// Arrival times must be non-decreasing across calls. Mixing Invoke with
// Run on the same platform is not supported.
func (p *Platform) Invoke(inv *workload.Invocation) Result {
	if inv.Fn == nil {
		panic("platform: Invoke with nil function")
	}
	if inv.Arrival < p.now {
		panic(fmt.Sprintf("platform: Invoke at %v before now %v", inv.Arrival, p.now))
	}
	return p.step(inv)
}

// Drain completes all outstanding executions and returns the final
// results (interactive mode's equivalent of Run finishing).
func (p *Platform) Drain() *RunResult {
	p.Retire(math.MaxInt64, nil) // BusyUntil stays far below it (trace.MaxMS)
	return p.Results()
}

// Now returns the platform's current virtual time.
func (p *Platform) Now() time.Duration { return p.now }

// Results returns the platform's accumulated results so far.
func (p *Platform) Results() *RunResult {
	p.res.PoolStats = p.pool.Stats()
	p.res.CleanerOps = p.cleaner.Ops()
	p.res.PoolUsedMB = p.pool.UsedMB()
	p.res.RunningMB = p.runningMB
	return &p.res
}

// step is the one way an invocation enters the platform, shared by Run
// and Invoke: the completions due strictly before the arrival run, the
// clock moves to the arrival, and the invocation is scheduled. A
// completion at the arrival's own instant runs after it (DESIGN.md §10).
// The clock never moves backwards, even for a negative first arrival.
func (p *Platform) step(inv *workload.Invocation) Result {
	p.Retire(inv.Arrival, nil)
	p.now = max(p.now, inv.Arrival)
	return p.arrive(inv)
}

// Retire runs, in completion order, every completion due strictly
// before due; equal instants retire in start order. It is the one
// completion loop: step and a gateway shard pass the arrival, Drain
// passes no bound. park,
// when non-nil, is offered each finished container before the pool, and
// a container it keeps never enters the pool (the gateway's lock-free
// layer takes exact re-hits this way). Retire returns the earliest
// completion still pending, math.MaxInt64 when there is none.
func (p *Platform) Retire(due time.Duration, park func(*container.Container) bool) time.Duration {
	for p.busy.Len() > 0 {
		if next := p.busy.Next(); next >= due {
			return next
		}
		p.retire(park)
	}
	return math.MaxInt64
}

// retire runs the earliest completion: the clock moves to it unless it
// is already later, a tracer sees a "finish/c<ID>" event, and the
// container goes back inside one PhaseDispatch span.
func (p *Platform) retire(park func(*container.Container) bool) {
	at, r := p.busy.Pop()
	p.now = max(p.now, at)
	if p.obs.Tracing() {
		p.obs.Emit(obs.Event{Kind: obs.KindEventFired, At: at, Seq: -1, Fn: -1,
			Detail: "finish/c" + strconv.Itoa(r.c.ID)})
	}
	sp := p.prof.Start(perf.PhaseDispatch)
	p.complete(r.c, r.fn, park)
	sp.End()
}

// Track makes the platform responsible for a busy container it did not
// schedule itself — one the gateway's lock-free layer reused — so that
// its memory counts as running and it retires like any other.
func (p *Platform) Track(c *container.Container, fn *workload.Function) {
	p.addRunning(c)
	p.busy.Push(c.BusyUntil, finishRec{c: c, fn: fn})
}

// addRunning counts a busy container's memory as running, with the
// peaks.
func (p *Platform) addRunning(c *container.Container) {
	p.runningMB += c.MemoryMB
	if p.runningMB > p.res.PeakRunningMB {
		p.res.PeakRunningMB = p.runningMB
	}
	if alive := p.runningMB + p.pool.UsedMB(); alive > p.res.PeakAliveMB {
		p.res.PeakAliveMB = alive
	}
}

// Apply realises a scheduler's choice for one invocation against a warm
// pool — the one step where a choice becomes a container, taken by
// arrive for both the simulator and gateway shards: ColdStart creates a
// sandbox, the ID of an idle pooled container that matches inv at some
// level is taken from the pool and re-packed through the cleaner. Any
// other choice is a policy error and is not trusted: the pool stays
// untouched, the invocation is served as a cold start and honoured is
// false, so a misbehaving policy costs latency, never availability.
// newID supplies the sandbox ID and is consulted only on a cold start.
func Apply(pl *pool.Pool, cl *container.Cleaner, inv *workload.Invocation, now time.Duration,
	choice int, newID func() int) (c *container.Container, s container.Startup, lvl core.MatchLevel, honoured bool) {
	if choice != ColdStart {
		if pooled := pl.Get(choice); pooled != nil {
			if lvl = core.Match(&inv.Fn.Image, pooled.Image); lvl != core.NoMatch {
				c = pl.Take(choice, now)
				return c, c.Reuse(inv, lvl, now, cl), lvl, true
			}
		}
	}
	c, s = container.NewCold(newID(), inv, now)
	return c, s, core.NoMatch, choice == ColdStart
}

// arrive handles one invocation: expiry, scheduling, startup accounting
// and completion scheduling.
func (p *Platform) arrive(inv *workload.Invocation) Result {
	now := p.now
	p.pool.Expire(now)
	p.rate.Observe(now)

	// The audited candidate set must be captured before the scheduler
	// runs: it is the pool state the policy saw.
	if p.obs.Tracing() {
		p.obs.Emit(obs.Event{Kind: obs.KindInvocationArrived, At: now, Seq: inv.Seq, Fn: inv.Fn.ID})
		p.observeCandidates(inv, now)
	}

	env := p.env()
	sp := p.prof.Start(perf.PhaseSchedule)
	choice := p.sched.Schedule(env, inv)
	sp.End()

	c, s, lvl, honoured := Apply(p.pool, p.cleaner, inv, now, choice, p.cfg.NewID)
	if !honoured {
		p.res.PolicyErrors++
	}
	if s.Cold {
		p.res.ContainersCreated++
	} else {
		p.res.PoolSeries.Observe(now, p.pool.UsedMB())
	}

	p.addRunning(c)

	res := Result{ContainerID: c.ID, Cold: s.Cold, Level: lvl, Startup: s}
	p.res.Metrics.Record(metrics.Sample{
		Seq:     inv.Seq,
		FnID:    inv.Fn.ID,
		Arrival: inv.Arrival,
		Startup: s.Total(),
		Cold:    s.Cold,
		Level:   int(lvl),
	})
	if p.obs.Tracing() {
		p.observeDecision(inv, now, choice, c, s, lvl)
	}
	p.seen++
	p.prevArr = inv.Arrival
	p.sched.OnResult(env, inv, res)

	p.busy.Push(c.BusyUntil, finishRec{c: c, fn: inv.Fn})
	return res
}

// complete returns a finished container to the pool, unless park keeps
// it.
func (p *Platform) complete(c *container.Container, fn *workload.Function, park func(*container.Container) bool) {
	now := p.now
	p.runningMB -= c.MemoryMB
	c.Complete(now)
	// The cost a warm copy of this container saves is its function's
	// full cold-start latency; cost-aware evictors (FaasCache) use it.
	if park == nil || !park(c) {
		p.pool.Add(c, fn.ColdStartTime(), now)
	}
	p.res.PoolSeries.Observe(now, p.pool.UsedMB())
	if alive := p.runningMB + p.pool.UsedMB(); alive > p.res.PeakAliveMB {
		p.res.PeakAliveMB = alive
	}
}
