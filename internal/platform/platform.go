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
	"time"

	"mlcr/internal/container"
	"mlcr/internal/core"
	"mlcr/internal/evict"
	"mlcr/internal/metrics"
	"mlcr/internal/obs"
	"mlcr/internal/obs/perf"
	"mlcr/internal/pool"
	"mlcr/internal/registry"
	"mlcr/internal/sim"
	"mlcr/internal/workload"
)

// ColdStart is the scheduler decision value meaning "create a new
// container" rather than reusing a pooled one.
const ColdStart = -1

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
	// Evictor is the pool eviction policy; nil defaults to LRU.
	Evictor pool.Evictor
	// RateAlpha is the smoothing factor of the arrival-rate EMA exposed
	// to schedulers; 0 defaults to 0.2.
	RateAlpha float64
	// PackageCache, when non-nil, is a node-local registry cache:
	// realized pull times come from the cache (hits are served at local
	// speed) instead of the static per-package registry times.
	// Schedulers still decide on the static estimates, modelling that
	// the platform cannot know cache contents ahead of admission.
	PackageCache *registry.Cache
	// Obs, when non-nil, observes the run: trace events, metrics and
	// the scheduler decision audit (see internal/obs). Nil disables all
	// instrumentation at near-zero cost.
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
	// Perf is the per-run phase breakdown with memory bracketing,
	// non-nil only when the run's Observer carried a phase profiler.
	// It reports measurement (host time, host memory), not simulation
	// state, so it is deliberately excluded from runner.Fingerprint.
	Perf *perf.Report
}

// finishRec is the payload of one in-flight completion event: the busy
// container and the invocation it serves. Records live in a slot table
// indexed by the typed event's int64 arg, so completions carry no
// closure (DESIGN.md §10).
type finishRec struct {
	c   *container.Container
	inv *workload.Invocation
}

// Platform wires the simulator together for one run.
type Platform struct {
	cfg     Config
	sched   Scheduler
	engine  *sim.Engine
	pool    *pool.Pool
	cleaner *container.Cleaner
	obs     *obs.Observer
	pm      *platformMetrics

	// Typed-event wiring: arrivals carry an index into runInvs,
	// completions an index into the finishing slot table. Slots are
	// recycled through finishFree so steady state allocates nothing.
	kindArrival sim.EventKind
	kindFinish  sim.EventKind
	runInvs     []workload.Invocation
	arrivalBase int64
	finishing   []finishRec
	finishFree  []int32

	nextID    int
	runningMB float64
	seen      int
	prevArr   time.Duration
	rate      workload.RateEMA
	ran       bool

	// prof is the observer's phase profiler (nil when perf is off),
	// cached so hot paths pay one field read per scope. dispatchSpan is
	// the in-flight event-dispatch span bracketed by the engine's
	// OnEvent/AfterEvent hooks (dispatch is single-threaded and
	// non-reentrant, so one slot suffices). memBefore brackets Run for
	// the report's memory accounting.
	prof         *perf.Profiler
	dispatchSpan perf.Span
	memBefore    perf.MemSnapshot

	res RunResult
}

// New builds a platform with the given configuration and scheduler.
func New(cfg Config, sched Scheduler) *Platform {
	if sched == nil {
		panic("platform: nil scheduler")
	}
	ev := cfg.Evictor
	if ev == nil {
		ev = evict.NewLRU()
	}
	alpha := cfg.RateAlpha
	if alpha == 0 {
		alpha = 0.2
	}
	p := &Platform{
		cfg:     cfg,
		sched:   sched,
		engine:  sim.NewEngine(),
		pool:    pool.New(cfg.PoolCapacityMB, ev),
		cleaner: &container.Cleaner{},
		obs:     cfg.Obs,
		nextID:  1,
	}
	p.rate.Alpha = alpha
	p.res.Policy = sched.Name()
	p.kindArrival = p.engine.RegisterKind(func(_ *sim.Engine, _ sim.Time, arg int64) {
		p.handleArrival(int(arg))
	})
	p.kindFinish = p.engine.RegisterKind(func(_ *sim.Engine, _ sim.Time, arg int64) {
		p.handleFinish(int(arg))
	})
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
	if err := w.Validate(); err != nil {
		panic(fmt.Sprintf("platform: %v", err))
	}
	// Arrivals are typed events scheduled lazily: sequence numbers for
	// all of them are reserved up front — so simultaneous-event ordering
	// is bit-identical to bulk pre-scheduling — but only one arrival is
	// queued at a time (each schedules its successor). Validate has
	// already guaranteed non-decreasing arrival times, which makes the
	// lazy chain legal, and the queue stays bounded by the number of
	// in-flight executions instead of the trace length.
	p.runInvs = w.Invocations
	// One metrics sample per invocation and at most two pool-series
	// points (reuse + completion); reserving up front removes the
	// repeated buffer-doubling copies from trace-scale runs.
	p.res.Metrics.Reserve(len(w.Invocations))
	p.res.PoolSeries.Reserve(2 * len(w.Invocations))
	p.arrivalBase = p.engine.ReserveSeqs(int64(len(w.Invocations)))
	if len(w.Invocations) > 0 {
		p.engine.ScheduleKindSeq(w.Invocations[0].Arrival, p.kindArrival, 0, p.arrivalBase)
	}
	if p.prof != nil {
		p.memBefore = perf.ReadMem()
	}
	p.engine.Run()
	p.res.PoolStats = p.pool.Stats()
	p.res.CleanerOps = p.cleaner.Ops()
	p.finishPerf()
	return &p.res
}

// finishPerf snapshots the profiler into the result's PerfReport and
// publishes per-phase summaries to the metrics registry. A no-op
// without a profiler; safe to call more than once (Drain after
// Invoke), the later report superseding the earlier.
func (p *Platform) finishPerf() {
	if p.prof == nil {
		return
	}
	rep := p.prof.Report()
	rep.Mem = &perf.MemDelta{Before: p.memBefore, After: perf.ReadMem()}
	p.res.Perf = rep
	p.obs.PublishPerf()
}

func (p *Platform) env() Env {
	return Env{
		Now:         p.engine.Now(),
		Pool:        p.pool,
		RunningMB:   p.runningMB,
		Seen:        p.seen,
		PrevArrival: p.prevArr,
		Rate:        p.rate.Rate(),
	}
}

// Invoke processes a single invocation interactively: the engine first
// drains completions up to the arrival time, then the invocation is
// scheduled and its outcome returned. Arrival times must be
// non-decreasing across calls. Mixing Invoke with Run on the same
// platform is not supported.
func (p *Platform) Invoke(inv *workload.Invocation) Result {
	if inv.Fn == nil {
		panic("platform: Invoke with nil function")
	}
	if inv.Arrival < p.engine.Now() {
		panic(fmt.Sprintf("platform: Invoke at %v before now %v", inv.Arrival, p.engine.Now()))
	}
	p.engine.RunUntil(inv.Arrival)
	res := p.arrive(inv)
	p.res.PoolStats = p.pool.Stats()
	p.res.CleanerOps = p.cleaner.Ops()
	return res
}

// Drain completes all outstanding executions and returns the final
// results (interactive mode's equivalent of Run finishing).
func (p *Platform) Drain() *RunResult {
	p.engine.Run()
	p.res.PoolStats = p.pool.Stats()
	p.res.CleanerOps = p.cleaner.Ops()
	p.finishPerf()
	return &p.res
}

// Now returns the platform's current virtual time.
func (p *Platform) Now() time.Duration { return p.engine.Now() }

// Results returns the platform's accumulated results so far.
func (p *Platform) Results() *RunResult { return &p.res }

// Apply realises a scheduler's choice for one invocation against a warm
// pool — the one step shared by every driver of the lifecycle (the
// simulator's arrive, the gateway's slow path): ColdStart creates a
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
			if lvl = core.Match(inv.Fn.Image, pooled.Image); lvl != core.NoMatch {
				c = pl.Take(choice, now)
				return c, c.Reuse(inv, lvl, now, cl), lvl, true
			}
		}
	}
	c, s = container.NewCold(newID(), inv, now)
	return c, s, core.NoMatch, choice == ColdStart
}

// newID hands out the next sandbox ID.
func (p *Platform) newID() int {
	id := p.nextID
	p.nextID++
	return id
}

// arrive handles one invocation: expiry, scheduling, startup accounting
// and completion scheduling.
func (p *Platform) arrive(inv *workload.Invocation) Result {
	now := p.engine.Now()
	p.pool.Expire(now)
	p.rate.Observe(now)

	if p.obs.Tracing() {
		p.obs.Emit(obs.Event{Kind: obs.KindInvocationArrived, At: now, Seq: inv.Seq, Fn: inv.Fn.ID})
	}
	// The audited candidate set must be captured before the scheduler
	// runs: it is the pool state the policy saw.
	var cands []obs.Candidate
	if p.obs.Auditing() || p.obs.Tracing() {
		cands = p.observeCandidates(inv, now)
	}

	env := p.env()
	sp := p.prof.Start(perf.PhaseSchedule)
	choice := p.sched.Schedule(env, inv)
	sp.End()

	c, s, lvl, honoured := Apply(p.pool, p.cleaner, inv, now, choice, p.newID)
	if !honoured {
		p.res.PolicyErrors++
	}
	p.applyCache(c, &s, lvl, inv)
	if s.Cold {
		p.res.ContainersCreated++
	} else {
		p.res.PoolSeries.Observe(now, p.pool.UsedMB())
	}

	p.runningMB += c.MemoryMB
	if p.runningMB > p.res.PeakRunningMB {
		p.res.PeakRunningMB = p.runningMB
	}
	if alive := p.runningMB + p.pool.UsedMB(); alive > p.res.PeakAliveMB {
		p.res.PeakAliveMB = alive
	}

	res := Result{ContainerID: c.ID, Cold: s.Cold, Level: lvl, Startup: s}
	p.res.Metrics.Record(metrics.Sample{
		Seq:     inv.Seq,
		FnID:    inv.Fn.ID,
		Arrival: inv.Arrival,
		Startup: s.Total(),
		Cold:    s.Cold,
		Level:   int(lvl),
	})
	if p.obs != nil {
		p.observeDecision(inv, now, cands, choice, c, s, lvl)
	}
	p.seen++
	p.prevArr = inv.Arrival
	p.sched.OnResult(env, inv, res)

	p.engine.ScheduleKind(c.BusyUntil, p.kindFinish, int64(p.finishSlot(c, inv)))
	return res
}

// handleArrival fires invocation i of the current Run: it queues the
// successor arrival under its pre-reserved sequence number, then
// processes the invocation.
func (p *Platform) handleArrival(i int) {
	if next := i + 1; next < len(p.runInvs) {
		p.engine.ScheduleKindSeq(p.runInvs[next].Arrival, p.kindArrival,
			int64(next), p.arrivalBase+int64(next))
	}
	p.arrive(&p.runInvs[i])
}

// finishSlot stores a completion record and returns its slot index, the
// payload of the finish event. Freed slots are reused LIFO.
func (p *Platform) finishSlot(c *container.Container, inv *workload.Invocation) int {
	if n := len(p.finishFree); n > 0 {
		s := p.finishFree[n-1]
		p.finishFree = p.finishFree[:n-1]
		p.finishing[s] = finishRec{c: c, inv: inv}
		return int(s)
	}
	p.finishing = append(p.finishing, finishRec{c: c, inv: inv})
	return len(p.finishing) - 1
}

// handleFinish releases the completion slot and returns the container
// to the pool. The slot is cleared before complete runs so the table
// never retains finished containers.
func (p *Platform) handleFinish(slot int) {
	rec := p.finishing[slot]
	p.finishing[slot] = finishRec{}
	p.finishFree = append(p.finishFree, int32(slot))
	p.complete(rec.c, rec.inv)
}

// applyCache replaces the static registry pull time with the node-local
// cache's realized time, adjusting the container's completion time to
// match. It must run before the completion event is scheduled.
func (p *Platform) applyCache(c *container.Container, s *container.Startup, lvl core.MatchLevel, inv *workload.Invocation) {
	if p.cfg.PackageCache == nil {
		return
	}
	var cached time.Duration
	for _, l := range container.PulledLevels(lvl) {
		cached += p.cfg.PackageCache.PullLevel(inv.Fn.Image, l)
	}
	c.BusyUntil += cached - s.Pull
	s.Pull = cached
}

// complete returns a finished container to the pool.
func (p *Platform) complete(c *container.Container, inv *workload.Invocation) {
	now := p.engine.Now()
	p.runningMB -= c.MemoryMB
	c.Complete(now)
	// The cost a warm copy of this container saves is its function's
	// full cold-start latency; cost-aware evictors (FaasCache) use it.
	p.pool.Add(c, inv.Fn.ColdStartTime(), now)
	p.res.PoolSeries.Observe(now, p.pool.UsedMB())
	if alive := p.runningMB + p.pool.UsedMB(); alive > p.res.PeakAliveMB {
		p.res.PeakAliveMB = alive
	}
	if p.pm != nil {
		p.pm.poolUsedMB.Set(p.pool.UsedMB())
		p.pm.runningMB.Set(p.runningMB)
	}
}
