package platform

import (
	"strconv"
	"time"

	"mlcr/internal/container"
	"mlcr/internal/core"
	"mlcr/internal/obs"
	"mlcr/internal/workload"
)

// platformMetrics caches the registry handles the platform updates on
// its hot paths, so instrumented runs pay pointer increments instead of
// map lookups. Nil when the run has no metrics registry.
type platformMetrics struct {
	reg         *obs.Registry
	invocations *obs.Counter
	coldStarts  *obs.Counter
	warm        [4]*obs.Counter // indexed by match level; [0] unused
	created     *obs.Counter
	reused      *obs.Counter
	swaps       *obs.Counter
	startup     *obs.Summary
	poolUsedMB  *obs.Gauge
	runningMB   *obs.Gauge
	evicted     map[string]*obs.Counter // by reason, lazily registered
}

func newPlatformMetrics(reg *obs.Registry) *platformMetrics {
	m := &platformMetrics{
		reg:         reg,
		invocations: reg.Counter("mlcr_invocations_total", "Invocations scheduled."),
		coldStarts:  reg.Counter("mlcr_cold_starts_total", "Cold-started invocations."),
		created:     reg.Counter("mlcr_containers_created_total", "Sandboxes created."),
		reused:      reg.Counter("mlcr_containers_reused_total", "Warm-container reuses."),
		swaps:       reg.Counter("mlcr_volume_swaps_total", "Container-cleaner repacks."),
		startup:     reg.Summary("mlcr_startup_seconds", "Startup latency distribution."),
		poolUsedMB:  reg.Gauge("mlcr_pool_used_mb", "Memory held by idle pooled containers."),
		runningMB:   reg.Gauge("mlcr_running_mb", "Memory held by busy containers."),
		evicted:     map[string]*obs.Counter{},
	}
	for lv := 1; lv <= 3; lv++ {
		m.warm[lv] = reg.Counter(
			`mlcr_warm_starts_total{level="`+strconv.Itoa(lv)+`"}`,
			"Warm starts by match level.")
	}
	return m
}

// eviction returns the per-policy, per-reason eviction counter,
// registering it on first use (evictions are rare; the map lookup is
// off the hot path). The policy label names the configured eviction
// policy, so grid runs and multi-pool deployments stay tellable apart.
func (m *platformMetrics) eviction(policy, reason string) *obs.Counter {
	c, ok := m.evicted[reason]
	if !ok {
		c = m.reg.Counter(`mlcr_pool_evictions_total{policy="`+policy+`",reason="`+reason+`"}`,
			"Containers killed by the pool, by policy and reason.")
		m.evicted[reason] = c
	}
	return c
}

// wireObservability connects the configured Observer to the pool and
// cleaner hooks. Called once from New; a nil observer leaves every hook
// nil so unobserved runs take the zero-cost branches.
func (p *Platform) wireObservability() {
	o := p.obs
	if o == nil {
		return
	}
	if o.Metrics != nil {
		p.pm = newPlatformMetrics(o.Metrics)
	}
	p.pool.Prof = p.prof
	p.pool.OnEvict = func(c *container.Container, reason string, now time.Duration) {
		if o.Tracing() {
			o.Emit(obs.Event{
				Kind: obs.KindContainerEvicted, At: now, Seq: -1, Fn: c.FnID,
				Container: c.ID, Detail: reason,
			})
		}
		if p.pm != nil {
			p.pm.eviction(p.pool.Evictor().Name(), reason).Inc()
		}
	}
	p.cleaner.OnSwap = func(op container.SwapOp) {
		if o.Tracing() {
			o.Emit(obs.Event{
				Kind: obs.KindVolumeSwapped, At: p.now, Seq: -1,
				Fn: op.ToFn, Container: op.ContainerID, Level: int(op.Level),
				Detail: "from=fn" + strconv.Itoa(op.FromFn) +
					" unmounts=" + strconv.Itoa(op.Unmounts) +
					" mounts=" + strconv.Itoa(op.Mounts),
			})
		}
		if p.pm != nil {
			p.pm.swaps.Inc()
		}
	}
}

// observeCandidates emits one MatchAttempted trace event per idle
// container: its match level, estimated reuse cost and — for containers
// the DQN mask would never offer — the prune reason. The decision audit
// reads its candidate set from these events. Only called when tracing.
func (p *Platform) observeCandidates(inv *workload.Invocation, now time.Duration) {
	idle := p.pool.Idle()
	if len(idle) == 0 {
		return
	}
	coldEst := container.Estimate(inv.Fn, core.NoMatch, false).Total()
	for _, c := range idle {
		est, lv := container.EstimateFor(inv.Fn, c)
		reason := ""
		switch {
		case lv == core.NoMatch:
			reason = obs.PruneNoMatch
		case est.Total() >= coldEst:
			reason = obs.PruneWorseThanCold
		}
		p.obs.Emit(obs.Event{
			Kind: obs.KindMatchAttempted, At: now, Seq: inv.Seq, Fn: inv.Fn.ID,
			Container: c.ID, Level: int(lv), Dur: est.Total(), Detail: reason,
		})
	}
}

// observeDecision records the realized outcome of one scheduling
// decision: one ScheduleDecided trace event and the metrics. choice is
// the scheduler's raw action (container ID or ColdStart).
func (p *Platform) observeDecision(inv *workload.Invocation, now time.Duration,
	choice int, c *container.Container, s container.Startup, lvl core.MatchLevel) {
	if p.obs.Tracing() {
		p.obs.Emit(obs.Event{
			Kind: obs.KindScheduleDecided, At: now, Seq: inv.Seq, Fn: inv.Fn.ID,
			Container: c.ID, Level: int(lvl), Action: choice, Cold: s.Cold, Dur: s.Total(),
		})
	}
	if p.pm != nil {
		p.pm.invocations.Inc()
		if s.Cold {
			p.pm.coldStarts.Inc()
			p.pm.created.Inc()
		} else {
			p.pm.reused.Inc()
			if lvl >= 1 && int(lvl) < len(p.pm.warm) {
				p.pm.warm[lvl].Inc()
			}
		}
		p.pm.startup.Observe(s.Total())
		p.pm.poolUsedMB.Set(p.pool.UsedMB())
		p.pm.runningMB.Set(p.runningMB)
	}
}
