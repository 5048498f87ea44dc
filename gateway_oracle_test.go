package mlcr_test

import (
	"fmt"
	"testing"
	"time"

	"mlcr/internal/api"
	"mlcr/internal/evict"
	"mlcr/internal/experiments"
	"mlcr/internal/fstartbench"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/pool"
	"mlcr/internal/workload"
)

// TestGatewayMatchesSimulator is the differential oracle of the serving
// path. One goroutine drives a one-shard gateway without the fast layer
// through Gateway.Invoke, on a clock pinned at zero so that every
// request carries its own arrival, and platform.Invoke replays the same
// trace. Each invocation must get the same container, cold flag, match
// level and startup, and the final /stats must equal the platform's
// RunResult, for every grid scheduler × every registered evictor, on
// overall-mix traces of 400 and 3,000 invocations (-short keeps 400),
// at 0.2 and 0.5 × Loose, with raw and whole-millisecond times. The
// millisecond traces put completions exactly on arrivals, where the tie
// rule decides.
func TestGatewayMatchesSimulator(t *testing.T) {
	counts := []int{400, 3000}
	if testing.Short() {
		counts = counts[:1]
	}
	for _, n := range counts {
		for _, ms := range []bool{false, true} {
			w := fstartbench.BuildOverall(1, fstartbench.OverallOptions{Count: n})
			for i := range w.Invocations {
				if inv := &w.Invocations[i]; ms {
					inv.Arrival = inv.Arrival.Round(time.Millisecond)
					inv.Exec = inv.Exec.Round(time.Millisecond)
				}
			}
			loose := experiments.CalibrateLoose(w)
			for _, frac := range []float64{0.2, 0.5} {
				for _, sched := range policy.GridSchedulers() {
					for _, ev := range evict.Names() {
						if diff := diffGateway(w, loose*frac, sched, ev); diff != "" {
							t.Errorf("%d invocations, ms=%v, %v × Loose, %s + %s: %s", n, ms, frac, sched, ev, diff)
						}
					}
				}
			}
		}
	}
}

// diffGateway replays w through the platform and a one-shard gateway
// without the fast layer and describes the first difference, "" when
// there is none.
func diffGateway(w workload.Workload, poolMB float64, sched, ev string) string {
	newSched := func() platform.Scheduler { s, _ := policy.New(sched, 1); return s }
	newEvictor := func() pool.Evictor { return evict.MustNew(ev, 1) }
	p := platform.New(platform.Config{PoolCapacityMB: poolMB, Evictor: newEvictor()}, newSched())
	g, err := api.NewGateway(api.GatewayConfig{
		Functions: fstartbench.Functions(), PoolCapacityMB: poolMB,
		NewScheduler: newSched, NewEvictor: newEvictor,
		Clock: func() time.Duration { return 0 }, Shards: 1, FastDepth: -1,
	})
	if err != nil {
		return err.Error()
	}
	for i := range w.Invocations {
		inv := &w.Invocations[i]
		want := p.Invoke(inv)
		got, err := g.Invoke(inv.Fn.ID, inv.Arrival, inv.Exec)
		if err != nil {
			return err.Error()
		}
		if got.ContainerID != want.ContainerID || got.Cold != want.Cold || got.MatchLevel != want.Level.String() ||
			got.StartupMS != want.Startup.Total().Milliseconds() {
			return fmt.Sprintf("invocation %d at %v: gateway container %d cold=%v %s %d ms, platform container %d cold=%v %s %v",
				i, inv.Arrival, got.ContainerID, got.Cold, got.MatchLevel, got.StartupMS,
				want.ContainerID, want.Cold, want.Level, want.Startup.Total())
		}
	}
	if got, want := g.Stats(), statsOf(p); got != want {
		return fmt.Sprintf("stats\n got %+v\nwant %+v", got, want)
	}
	return ""
}

// statsOf renders a platform's results so far as a one-shard gateway's
// GET /stats body.
func statsOf(p *platform.Platform) api.GatewayStatsResponse {
	res := p.Results()
	m := &res.Metrics
	lv := m.ByLevel()
	q := func(f float64) int64 { return m.StartupQuantile(f).Milliseconds() }
	return api.GatewayStatsResponse{
		Policy: res.Policy, Invocations: m.Count(),
		TotalStartupMS: m.TotalStartup().Milliseconds(), AvgStartupMS: m.AvgStartup().Milliseconds(),
		StartupQuantiles: api.StartupQuantiles{P50: q(0.50), P95: q(0.95), P99: q(0.99)},
		ColdStarts:       m.ColdStarts(), WarmStarts: m.WarmStarts(),
		ReuseByLevel: api.ReuseCounts{L1: lv[1], L2: lv[2], L3: lv[3]}, WarmByLevel: lv,
		PoolUsedMB: p.Pool().UsedMB(), PoolPeakMB: res.PoolStats.PeakUsedMB,
		Evictions: res.PoolStats.Evictions, Rejections: res.PoolStats.Rejections,
		Expirations: res.PoolStats.Expirations, PolicyErrors: res.PolicyErrors, Shards: 1,
	}
}
