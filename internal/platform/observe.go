package platform

import (
	"strconv"
	"time"

	"mlcr/internal/container"
	"mlcr/internal/core"
	"mlcr/internal/evict"
	"mlcr/internal/obs"
	"mlcr/internal/obs/perf"
	"mlcr/internal/workload"
)

// wireObservability connects a tracing Observer to the pool and
// cleaner hooks and the phase profiler to the pool. Called once from
// New; without a trace every hook stays nil, so unobserved runs take
// the zero-cost branches.
func (p *Platform) wireObservability() {
	p.pool.Prof = p.prof
	o := p.obs
	if !o.Tracing() {
		return
	}
	p.pool.OnEvict = func(c *container.Container, reason string, now time.Duration) {
		o.Emit(obs.Event{
			Kind: obs.KindContainerEvicted, At: now, Seq: -1, Fn: c.FnID,
			Container: c.ID, Detail: reason,
		})
	}
	p.cleaner.OnSwap = func(op container.SwapOp) {
		o.Emit(obs.Event{
			Kind: obs.KindVolumeSwapped, At: p.now, Seq: -1,
			Fn: op.ToFn, Container: op.ContainerID, Level: int(op.Level),
			Detail: "from=fn" + strconv.Itoa(op.FromFn) +
				" unmounts=" + strconv.Itoa(op.Unmounts) +
				" mounts=" + strconv.Itoa(op.Mounts),
		})
	}
}

// ExportMetrics derives the run's Prometheus series from the result:
// invocation, cold-start, reuse and swap counters, warm starts by
// match level, the startup latency as an HDR summary, the pool and
// running memory at the end of the run, and one eviction counter per
// reason the pool used, labelled with the evictor's name. Nothing on
// the decision path counts them; they are read off r when the export
// is written (obs.WritePrometheus).
func (r *RunResult) ExportMetrics() []obs.Metric {
	m := &r.Metrics
	startup := &perf.HDR{}
	m.MergeStartupInto(startup)
	counter := func(name, help string, n int) obs.Metric {
		return obs.Metric{Name: name, Help: help, Type: obs.TypeCounter, Value: float64(n)}
	}
	out := []obs.Metric{
		counter("mlcr_invocations_total", "Invocations scheduled.", m.Count()),
		counter("mlcr_cold_starts_total", "Cold-started invocations.", m.ColdStarts()),
		counter("mlcr_containers_created_total", "Sandboxes created.", r.ContainersCreated),
		counter("mlcr_containers_reused_total", "Warm-container reuses.", m.WarmStarts()),
		counter("mlcr_volume_swaps_total", "Container-cleaner repacks.", r.CleanerOps.Repacks),
		{Name: "mlcr_startup_seconds", Help: "Startup latency distribution.", Type: obs.TypeSummary, HDR: startup},
		{Name: "mlcr_pool_used_mb", Help: "Memory held by idle pooled containers.", Type: obs.TypeGauge, Value: r.PoolUsedMB},
		{Name: "mlcr_running_mb", Help: "Memory held by busy containers.", Type: obs.TypeGauge, Value: r.RunningMB},
	}
	for lv, n := range m.ByLevel() {
		if lv > 0 {
			out = append(out, counter(`mlcr_warm_starts_total{level="`+strconv.Itoa(lv)+`"}`, "Warm starts by match level.", n))
		}
	}
	ps := r.PoolStats
	for _, e := range []struct {
		reason string
		n      int
	}{
		{evict.ReasonCapacity, ps.Evictions},
		{evict.ReasonExpired, ps.Expirations},
		{evict.ReasonRejected, ps.Rejections - ps.Oversize},
		{evict.ReasonOversize, ps.Oversize},
	} {
		if e.n > 0 {
			out = append(out, counter(`mlcr_pool_evictions_total{policy="`+r.Evictor+`",reason="`+e.reason+`"}`,
				"Containers killed by the pool, by policy and reason.", e.n))
		}
	}
	return out
}

// observeCandidates emits one MatchAttempted trace event per idle
// container: its match level, estimated reuse cost and — for containers
// the DQN mask would never offer — the prune reason. The decision audit
// reads its candidate set from these events. Only called when tracing.
func (p *Platform) observeCandidates(inv *workload.Invocation, now time.Duration) {
	if p.pool.Len() == 0 {
		return
	}
	coldEst := container.Estimate(inv.Fn, core.NoMatch, false).Total()
	p.pool.RangeIdle(func(c *container.Container) bool {
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
		return true
	})
}

// observeDecision records the realized outcome of one scheduling
// decision as one ScheduleDecided trace event. choice is the
// scheduler's raw action (container ID or ColdStart). Only called when
// tracing.
func (p *Platform) observeDecision(inv *workload.Invocation, now time.Duration,
	choice int, c *container.Container, s container.Startup, lvl core.MatchLevel) {
	p.obs.Emit(obs.Event{
		Kind: obs.KindScheduleDecided, At: now, Seq: inv.Seq, Fn: inv.Fn.ID,
		Container: c.ID, Level: int(lvl), Action: choice, Cold: s.Cold, Dur: s.Total(),
	})
}
