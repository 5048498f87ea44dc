package main

// The four workloads. Each one knows how to set itself up, run one lap
// (one pass over its generated input against a fresh gateway or
// platform, untraced or traced) and turn what its laps saw into
// per-layer values. The shared driver in run.go times set-up, repeats
// laps for the measured time and derives the end-to-end metrics.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"mlcr/internal/api"
	"mlcr/internal/cluster"
	"mlcr/internal/drl"
	"mlcr/internal/evict"
	"mlcr/internal/experiments"
	"mlcr/internal/fstartbench"
	"mlcr/internal/mlcr"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/pool"
	"mlcr/internal/runner"
	"mlcr/internal/workload"
)

// Lap sizes at -scale 1: the issue's counts (2M / 750k / 1M / 2M)
// divided by one factor of 20, so that a 10 s measured phase holds
// five or more laps of every workload on a 2-core box.
const (
	warmLapRequests   = 100_000
	churnLapRequests  = 37_500
	mlcrLapInvs       = 50_000
	clusterLapInvs    = 100_000
	trainInvocations  = 400 // the paper's overall mix, as cmd/mlcr-train
	clusterWorkers    = 1000
	clusterWorkerMB   = 256
	gatewayShards     = 16
	warmPoolMB        = 32768
	churnPoolMB       = 16384
	batcherMaxBatch   = 64
	simMLCRPoolFrac   = 0.2 // the paper's Tight setting
	replaySeedOffset  = 1   // the model trains on BuildOverall(seed), the replay is BuildOverall(seed+1)
	clusterRouterSeed = 1
)

// lapStats is what the driver needs from one lap of any workload.
type lapStats struct {
	ops       int // operations attempted (requests / invocations)
	failed    int
	overLimit int // answered right but past the latency limit (HTTP)
	wall      time.Duration
	cpu       time.Duration
	// meanUS and p99US are the lap's latency mean and 99th percentile:
	// of its requests on HTTP; a replayed invocation has no latency of
	// its own, so there both are the lap's host time per invocation.
	meanUS, p99US float64
	startupMS     float64 // simulated startup summed over the lap, ms
	colds         int
	// outcome is a digest of the lap's simulated results ("" when the
	// outcome legitimately depends on request interleaving); every lap
	// of a run, traced or not, must produce the same one.
	outcome string
}

type benchWorkload interface {
	// setup builds everything from generated inputs to a servable
	// system; it may be called repeatedly and keeps the last build.
	setup() error
	close()
	// warmup runs before the timed laps (fills connection buffers,
	// lazily initialised state); its work is not measured.
	warmup() error
	lap(traced bool) (lapStats, error)
	// inputDigest is the sha256 of the generated inputs.
	inputDigest() string
	// setupValues reports the workload.* and mlcr.train_* set-up
	// measurements of the last setup.
	setupValues() map[string]float64
	// layerValues reports the per-layer values of the traced laps.
	layerValues() (map[string]float64, error)
	spans() []span
}

func newWorkload(cfg *config) (benchWorkload, error) {
	switch cfg.workload {
	case "http_warm":
		return &httpWorkload{cfg: cfg, churn: false}, nil
	case "http_churn":
		return &httpWorkload{cfg: cfg, churn: true}, nil
	case "sim_mlcr":
		return &simMLCR{cfg: cfg}, nil
	case "sim_cluster":
		return &simCluster{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (try -list)", cfg.workload)
}

// buildStats are the workload.* set-up measurements.
type buildStats struct {
	buildS    float64
	n         int
	functions int
	rssMB     float64
}

func (b buildStats) values() map[string]float64 {
	return map[string]float64{
		"workload.build_s":            b.buildS,
		"workload.build_ns_per_inv":   ratio(b.buildS*1e9, float64(b.n)),
		"workload.functions":          float64(b.functions),
		"workload.rss_after_build_mb": b.rssMB,
	}
}

// trained is an MLCR model trained in set-up, with the pool size its
// training workload calibrates.
type trained struct {
	master      *mlcr.Scheduler
	looseMB     float64
	updatesPerS float64
}

// trainMLCR trains the scheduler as cmd/mlcr-train does, for
// cfg.episodes episodes on the paper's 400-invocation overall mix. The
// model is part of the system under test, not of its input, so it is
// trained from fixtureSeed on every run.
func trainMLCR(cfg *config) trained {
	w := fstartbench.BuildOverall(fixtureSeed, fstartbench.OverallOptions{Count: trainInvocations})
	loose := experiments.CalibrateLoose(w)
	t0 := time.Now()
	s := experiments.TrainMLCR(w, loose, []float64{0.2, 0.5, 1.0},
		experiments.Options{Seed: fixtureSeed, Episodes: cfg.episodes})
	return trained{master: s, looseMB: loose,
		updatesPerS: ratio(float64(s.Agent().Updates()), time.Since(t0).Seconds())}
}

// ---------------------------------------------------------------- HTTP

// gatewayTracer hands each gateway shard a traced scheduler/evictor
// pair. The gateway builds a shard's scheduler, then its evictor, so
// consecutive factory calls belong to one shard; a reset builds a
// fresh set.
type gatewayTracer struct {
	mu     sync.Mutex
	layers []*layerTrace
	reqAt  map[int64]int64 // at_ms -> request index, sampled requests only
	probe  *mlcrProbe      // nil when the policy is not MLCR
}

func (t *gatewayTracer) reqOf(inv *workload.Invocation) int64 {
	if req, ok := t.reqAt[int64(inv.Arrival/time.Millisecond)]; ok {
		return req
	}
	return -1
}

func (t *gatewayTracer) scheduler(inner platform.Scheduler) platform.Scheduler {
	t.mu.Lock()
	defer t.mu.Unlock()
	lt := newLayerTrace("api.handler", httpSampleEvery, t.reqOf)
	lt.shard = len(t.layers) % gatewayShards
	t.layers = append(t.layers, lt)
	return &tracedScheduler{inner: inner, lt: lt, probe: t.probe}
}

func (t *gatewayTracer) evictor(inner pool.Evictor) pool.Evictor {
	t.mu.Lock()
	defer t.mu.Unlock()
	return wrapEvictor(inner, t.layers[len(t.layers)-1])
}

// httpSide is one of the two served gateways of an HTTP workload — the
// untraced one every run measures, and the traced one of a per-layer
// run — with what its laps have seen so far.
type httpSide struct {
	gw        *api.Gateway
	rig       *rig
	lat       []int32 // latencies pooled over laps, ns (traced side only)
	latSum    int64
	stats     api.GatewayStatsResponse // GET /stats summed over laps
	sent      int
	failed    int
	overLimit int
}

type httpWorkload struct {
	cfg   *config
	churn bool

	fns    []*workload.Function
	reqs   []request
	digest string
	build  buildStats
	model  trained

	plain  httpSide
	traced httpSide
	tracer *gatewayTracer
	// qb is the traced gateway's batcher; qbReq0/qbBatch0 are its
	// counters when warm-up ended.
	qb               *drl.QBatcher
	qbReq0, qbBatch0 int64
}

func (h *httpWorkload) side(traced bool) *httpSide {
	if traced {
		return &h.traced
	}
	return &h.plain
}

func (h *httpWorkload) lapRequests() int {
	n := warmLapRequests
	if h.churn {
		n = churnLapRequests
	}
	return scaled(n, h.cfg.scale)
}

func (h *httpWorkload) factories(traced bool) (func() platform.Scheduler, func() pool.Evictor) {
	var mkSched func() platform.Scheduler
	var mkEvict func() pool.Evictor
	if h.churn {
		// As cmd/mlcr-server's gateway mode: per-shard clones of the
		// trained model sharing one QBatcher.
		master := h.model.master
		qb := drl.NewQBatcher(master.Agent().Online(), batcherMaxBatch)
		if traced {
			h.qb = qb
		}
		mkSched = func() platform.Scheduler {
			s := master.Clone()
			s.SetBatcher(qb)
			return s
		}
		mkEvict = func() pool.Evictor { return master.Evictor() }
	} else {
		mkSched = func() platform.Scheduler { return policy.NewGreedyMatch() }
		mkEvict = func() pool.Evictor { return policy.NewGreedyMatch().Evictor() }
	}
	if !traced {
		return mkSched, mkEvict
	}
	t := h.tracer
	return func() platform.Scheduler { return t.scheduler(mkSched()) },
		func() pool.Evictor { return t.evictor(mkEvict()) }
}

// serve builds and serves one side's gateway.
func (h *httpWorkload) serve(traced bool) error {
	poolMB := float64(warmPoolMB)
	if h.churn {
		poolMB = churnPoolMB
	}
	mkSched, mkEvict := h.factories(traced)
	gw, err := api.NewGateway(api.GatewayConfig{
		Functions:      h.fns,
		PoolCapacityMB: poolMB,
		NewScheduler:   mkSched,
		NewEvictor:     mkEvict,
		Shards:         gatewayShards,
	})
	if err != nil {
		return err
	}
	r, err := newRig(gw, h.reqs, traced)
	if err != nil {
		return err
	}
	*h.side(traced) = httpSide{gw: gw, rig: r}
	return nil
}

func (h *httpWorkload) setup() error {
	h.close()
	t0 := time.Now()
	if h.churn {
		h.fns, h.reqs = churnRequests(h.cfg.seed, h.lapRequests())
	} else {
		h.fns, h.reqs = warmRequests(h.cfg.seed, h.lapRequests())
	}
	h.build = buildStats{buildS: time.Since(t0).Seconds(), n: len(h.reqs), functions: len(h.fns), rssMB: peakRSSMB()}
	if h.churn {
		h.model = trainMLCR(h.cfg)
	}
	if err := h.serve(false); err != nil {
		return err
	}
	h.digest = bytesDigest(h.plain.rig.buf)
	if !h.cfg.trace {
		return nil
	}
	h.tracer = &gatewayTracer{reqAt: make(map[int64]int64)}
	for i := 0; i < len(h.reqs); i += httpSampleEvery {
		h.tracer.reqAt[h.reqs[i].atMS] = int64(i)
	}
	if h.churn {
		h.tracer.probe = newMLCRProbe(h.model.master)
	}
	return h.serve(true)
}

func (h *httpWorkload) close() {
	for _, s := range []*httpSide{&h.plain, &h.traced} {
		if s.rig != nil {
			s.rig.close()
			s.rig = nil
		}
	}
}

func (h *httpWorkload) warmup() error {
	sides := []*httpSide{&h.plain}
	if h.cfg.trace {
		sides = append(sides, &h.traced)
	}
	for _, s := range sides {
		deadline := time.Now().Add(h.cfg.warmup / time.Duration(len(sides)))
		if _, err := s.rig.lap(deadline); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	if h.cfg.trace { // warm-up calls are not measured
		h.tracer.layers = nil
		h.traced.rig.handler.reset()
		h.traced.rig.spans = nil
	}
	if h.qb != nil {
		h.qbReq0, h.qbBatch0 = h.qb.Requests(), h.qb.Batches()
	}
	return nil
}

func (h *httpWorkload) lap(traced bool) (lapStats, error) {
	s := h.side(traced)
	cpu0 := cpuTime()
	l, err := s.rig.lap(time.Time{})
	cpu := cpuTime() - cpu0
	if l == nil {
		return lapStats{}, err
	}
	if traced { // the per-layer tail (p99.9) pools all traced laps
		s.lat = append(s.lat, l.lat...)
	}
	s.latSum += l.latSum
	s.sent += l.sent
	s.failed += l.failed
	s.overLimit += l.overLimit
	addStats(&s.stats, &l.stats)
	return lapStats{
		ops: l.sent, failed: l.failed, overLimit: l.overLimit, wall: l.wall, cpu: cpu,
		meanUS: ratio(float64(l.latSum), float64(len(l.lat))) / 1e3, p99US: float64(quantile(l.lat, 0.99)) / 1e3,
		startupMS: float64(l.stats.TotalStartupMS), colds: l.stats.ColdStarts,
	}, err
}

// addStats sums the additive counters of GET /stats over laps (gauges
// keep the last lap's reading).
func addStats(dst, s *api.GatewayStatsResponse) {
	dst.Invocations += s.Invocations
	dst.TotalStartupMS += s.TotalStartupMS
	dst.ColdStarts += s.ColdStarts
	dst.WarmStarts += s.WarmStarts
	dst.ReuseByLevel.L1 += s.ReuseByLevel.L1
	dst.ReuseByLevel.L2 += s.ReuseByLevel.L2
	dst.ReuseByLevel.L3 += s.ReuseByLevel.L3
	dst.Evictions += s.Evictions
	dst.Rejections += s.Rejections
	dst.Expirations += s.Expirations
	dst.FastHits += s.FastHits
	dst.FastExpired += s.FastExpired
	dst.PoolUsedMB = s.PoolUsedMB
	if s.PoolPeakMB > dst.PoolPeakMB {
		dst.PoolPeakMB = s.PoolPeakMB
	}
}

func (h *httpWorkload) inputDigest() string { return h.digest }

func (h *httpWorkload) setupValues() map[string]float64 {
	v := h.build.values()
	v["mlcr.train_updates_per_s"] = h.model.updatesPerS
	return v
}

func (h *httpWorkload) spans() []span {
	if !h.cfg.trace {
		return nil
	}
	out := append([]span(nil), h.traced.rig.spans...)
	out = append(out, h.traced.rig.handler.spans...)
	for _, lt := range h.tracer.layers {
		out = append(out, lt.spans...)
	}
	return out
}

// replay times a single-goroutine pass of the request sequence through
// an in-process entry point of the untraced gateway, ns per request.
func (h *httpWorkload) replay(call func(g *api.Gateway, fn int, at time.Duration) error) (float64, error) {
	g := h.plain.gw
	g.Reset()
	t0 := time.Now()
	for i := range h.reqs {
		if err := call(g, h.reqs[i].fn, time.Duration(h.reqs[i].atMS)*time.Millisecond); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(h.reqs)), nil
}

func (h *httpWorkload) layerValues() (map[string]float64, error) {
	s, st := &h.traced, &h.traced.stats
	sort.Slice(s.lat, func(i, j int) bool { return s.lat[i] < s.lat[j] })
	// Stats locks every shard in turn, which orders this goroutine
	// after the last critical section that touched a layerTrace.
	s.gw.Stats()
	var sum layerTrace
	for _, lt := range h.tracer.layers {
		lt.mergeInto(&sum)
	}
	invokeNS, err := h.replay(func(g *api.Gateway, fn int, at time.Duration) error {
		_, err := g.Invoke(fn, at, 0)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("Invoke replay: %w", err)
	}
	doNS, err := h.replay(func(g *api.Gateway, fn int, at time.Duration) error {
		_, _, err := g.Do(fn, at, 0)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("Do replay: %w", err)
	}
	handlerCalls := s.rig.handler.calls.Load()
	inv := float64(st.Invocations)
	handlerUS := ratio(float64(s.rig.handler.ns.Load()), float64(handlerCalls)) / 1e3
	clientUS := ratio(float64(s.latSum), float64(s.sent-s.failed)) / 1e3
	v := map[string]float64{
		"api.requests":           float64(s.sent),
		"api.failed":             float64(s.failed),
		"api.over_limit_share":   ratio(float64(s.overLimit), float64(s.sent)),
		"api.latency_p999_us":    float64(quantile(s.lat, 0.999)) / 1e3,
		"api.handler_us_mean":    handlerUS,
		"api.transport_us_mean":  clientUS - handlerUS,
		"api.invoke_ns_mean":     invokeNS,
		"api.do_ns_mean":         doNS,
		"api.framing_us_mean":    handlerUS - invokeNS/1e3,
		"api.fast_hit_share":     ratio(float64(st.FastHits), inv),
		"api.cold_share":         ratio(float64(st.ColdStarts), inv),
		"api.reuse_l1_share":     ratio(float64(st.ReuseByLevel.L1), inv),
		"api.reuse_l2_share":     ratio(float64(st.ReuseByLevel.L2), inv),
		"api.reuse_l3_share":     ratio(float64(st.ReuseByLevel.L3), inv),
		"api.evictions_per_req":  ratio(float64(st.Evictions), inv),
		"api.rejections_per_req": ratio(float64(st.Rejections), inv),
		"api.fast_expired":       float64(st.FastExpired),
		"api.pool_used_mb":       st.PoolUsedMB,
		"pool.evictions":         float64(st.Evictions),
		"pool.rejections":        float64(st.Rejections),
		"pool.expirations":       float64(st.Expirations),
		"pool.peak_used_mb":      st.PoolPeakMB,
	}
	policyValues(v, &sum, h.churn)
	if h.qb != nil {
		v["mlcr.batch_size_mean"] = ratio(float64(h.qb.Requests()-h.qbReq0), float64(h.qb.Batches()-h.qbBatch0))
	}
	if int(handlerCalls) != s.sent {
		return v, fmt.Errorf("traced handler saw %d requests, clients sent %d", handlerCalls, s.sent)
	}
	return v, nil
}

// policyValues fills the scheduler-, pool- and evictor-boundary values
// from the merged wrapper state: under mlcr.* when the wrapped policy
// is the MLCR scheduler, under policy.* otherwise.
func policyValues(v map[string]float64, lt *layerTrace, isMLCR bool) {
	calls := float64(lt.schedule.calls)
	if isMLCR {
		v["mlcr.schedule_calls"] = calls
		v["mlcr.schedule_us_mean"] = (lt.schedule.mean() + lt.onResult.mean()) / 1e3
		v["mlcr.cold_choice_share"] = ratio(float64(lt.coldPicks), calls)
		v["mlcr.featurize_us_mean"] = lt.featurize.mean() / 1e3
		v["mlcr.forward_us_mean"] = lt.forward.mean() / 1e3
	} else {
		v["policy.schedule_calls"] = calls
		v["policy.schedule_ns_mean"] = lt.schedule.mean() + lt.onResult.mean()
		v["policy.cold_choice_share"] = ratio(float64(lt.coldPicks), calls)
	}
	v["pool.match_ns_mean"] = lt.match.mean()
	v["pool.match_candidates_mean"] = ratio(float64(lt.matchCand), float64(lt.match.calls))
	v["pool.adds"] = float64(lt.adds)
	v["evict.pick_calls"] = float64(lt.pick.calls)
	v["evict.pick_ns_mean"] = lt.pick.mean()
	v["evict.hook_calls"] = float64(lt.hook.calls)
	v["evict.hook_ns_mean"] = lt.hook.mean()
	v["evict.refused_share"] = ratio(float64(lt.refused), float64(lt.pick.calls))
}

// ------------------------------------------------------------ sim_mlcr

// simTotals accumulates what the traced laps of a replay workload saw.
type simTotals struct {
	layers     layerTrace
	laps       int
	invs       int
	hostNS     int64 // CPU time of the traced replays
	poolStats  pool.Stats
	created    int
	peakAlive  float64
	rootSpans  []span
	routeNS    float64
	routeCalls int
	workerSimS float64
	imbalance  float64
}

func (t *simTotals) addResult(res *platform.RunResult) {
	t.poolStats.Adds += res.PoolStats.Adds
	t.poolStats.Evictions += res.PoolStats.Evictions
	t.poolStats.Rejections += res.PoolStats.Rejections
	t.poolStats.Expirations += res.PoolStats.Expirations
	if res.PoolStats.PeakUsedMB > t.poolStats.PeakUsedMB {
		t.poolStats.PeakUsedMB = res.PoolStats.PeakUsedMB
	}
	t.created += res.ContainersCreated
	if res.PeakAliveMB > t.peakAlive {
		t.peakAlive = res.PeakAliveMB
	}
}

func (t *simTotals) values(isMLCR bool) (map[string]float64, error) {
	v := map[string]float64{
		"pool.evictions":              float64(t.poolStats.Evictions),
		"pool.rejections":             float64(t.poolStats.Rejections),
		"pool.expirations":            float64(t.poolStats.Expirations),
		"pool.peak_used_mb":           t.poolStats.PeakUsedMB,
		"platform.containers_created": float64(t.created),
		"platform.peak_alive_mb":      t.peakAlive,
	}
	lt := &t.layers
	policyValues(v, lt, isMLCR)
	// Host time of the replay outside the scheduler and the evictor:
	// platform + sim engine + pool + metrics collection (and, on the
	// cluster, routing and partitioning). CPU time, so that parallel
	// workers add up.
	inside := lt.schedule.ns + lt.onResult.ns + lt.pick.ns + lt.hook.ns +
		lt.featurize.ns + lt.forward.ns + lt.match.ns
	v["platform.self_ns_per_inv"] = ratio(float64(t.hostNS-inside), float64(t.invs))
	if int(lt.schedule.calls) != t.invs {
		return v, fmt.Errorf("traced scheduler saw %d decisions for %d invocations", lt.schedule.calls, t.invs)
	}
	if int(lt.adds) != t.poolStats.Adds {
		return v, fmt.Errorf("traced evictor saw %d adds, pool counted %d", lt.adds, t.poolStats.Adds)
	}
	return v, nil
}

// resultDigest hashes runner.Fingerprint of each result in order.
func resultDigest(results ...*platform.RunResult) string {
	h := sha256.New()
	for _, res := range results {
		io.WriteString(h, runner.Fingerprint(res))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// replayLap starts the lapStats of a replay of n invocations.
func replayLap(n int, wall, cpu time.Duration) lapStats {
	perInv := ratio(float64(wall.Nanoseconds())/1e3, float64(n))
	return lapStats{ops: n, wall: wall, cpu: cpu, meanUS: perInv, p99US: perInv}
}

func seqOf(inv *workload.Invocation) int64 { return int64(inv.Seq) }

type simMLCR struct {
	cfg    *config
	model  trained
	trace  workload.Workload
	digest string
	build  buildStats
	poolMB float64
	probe  *mlcrProbe
	tot    simTotals
}

func (s *simMLCR) setup() error {
	t0 := time.Now()
	s.trace = overallTrace(s.cfg.seed, scaled(mlcrLapInvs, s.cfg.scale))
	s.build = buildStats{buildS: time.Since(t0).Seconds(), n: len(s.trace.Invocations),
		functions: len(s.trace.Functions), rssMB: peakRSSMB()}
	s.digest = traceDigest(s.trace)
	s.model = trainMLCR(s.cfg)
	s.poolMB = simMLCRPoolFrac * s.model.looseMB
	if s.cfg.trace {
		s.probe = newMLCRProbe(s.model.master)
	}
	return nil
}

func (s *simMLCR) close()        {}
func (s *simMLCR) warmup() error { return nil }

func (s *simMLCR) lap(traced bool) (lapStats, error) {
	clone := s.model.master.Clone()
	var sched platform.Scheduler = clone
	ev := clone.Evictor()
	var lt *layerTrace
	if traced {
		lt = newLayerTrace("platform.run", simSampleEvery, seqOf)
		sched = &tracedScheduler{inner: clone, lt: lt, probe: s.probe}
		ev = wrapEvictor(ev, lt)
	}
	p := platform.New(platform.Config{PoolCapacityMB: s.poolMB, Evictor: ev}, sched)
	cpu0, t0 := cpuTime(), time.Now()
	res := p.Run(s.trace)
	t1 := time.Now()
	out := replayLap(len(s.trace.Invocations), t1.Sub(t0), cpuTime()-cpu0)
	out.startupMS = float64(res.Metrics.TotalStartup()) / float64(time.Millisecond)
	out.colds = res.Metrics.ColdStarts()
	out.outcome = resultDigest(res)
	if traced {
		lt.mergeInto(&s.tot.layers)
		s.tot.laps++
		s.tot.invs += out.ops
		s.tot.hostNS += int64(out.cpu)
		s.tot.addResult(res)
		s.tot.rootSpans = append(s.tot.rootSpans, span{Name: "platform.run", Req: -1, Start: since(t0), End: since(t1)})
	}
	if got := res.Metrics.Count(); got != out.ops {
		out.failed = out.ops - got
		return out, fmt.Errorf("platform.Run served %d of %d invocations", got, out.ops)
	}
	return out, nil
}

func (s *simMLCR) inputDigest() string { return s.digest }

func (s *simMLCR) setupValues() map[string]float64 {
	v := s.build.values()
	v["mlcr.train_updates_per_s"] = s.model.updatesPerS
	return v
}

func (s *simMLCR) layerValues() (map[string]float64, error) { return s.tot.values(true) }

func (s *simMLCR) spans() []span { return append(s.tot.rootSpans, s.tot.layers.spans...) }

// --------------------------------------------------------- sim_cluster

type simCluster struct {
	cfg    *config
	trace  workload.Workload
	digest string
	build  buildStats
	tot    simTotals
}

func (s *simCluster) setup() error {
	t0 := time.Now()
	s.trace = azureTrace(s.cfg.seed, scaled(clusterLapInvs, s.cfg.scale))
	s.build = buildStats{buildS: time.Since(t0).Seconds(), n: len(s.trace.Invocations),
		functions: len(s.trace.Functions), rssMB: peakRSSMB()}
	s.digest = traceDigest(s.trace)
	return nil
}

func (s *simCluster) close()        {}
func (s *simCluster) warmup() error { return nil }

func (s *simCluster) lap(traced bool) (lapStats, error) {
	cfg := cluster.Config{
		Workers:        clusterWorkers,
		PoolCapacityMB: clusterWorkers * clusterWorkerMB,
		Router:         "p2c",
		RouterSeed:     clusterRouterSeed,
		NewScheduler:   func(int) platform.Scheduler { return policy.NewGreedyMatch() },
		NewEvictor:     func(int) pool.Evictor { return evict.NewLRU() },
	}
	var layers []*layerTrace
	if traced {
		// One wrapper pair per worker, built before the run: cluster.Run
		// calls the factories from its worker goroutines.
		layers = make([]*layerTrace, clusterWorkers)
		for i := range layers {
			layers[i] = newLayerTrace("cluster.worker", simSampleEvery, seqOf)
			layers[i].shard = i
		}
		cfg.NewScheduler = func(i int) platform.Scheduler {
			return &tracedScheduler{inner: policy.NewGreedyMatch(), lt: layers[i]}
		}
		cfg.NewEvictor = func(i int) pool.Evictor { return wrapEvictor(evict.NewLRU(), layers[i]) }
	}
	cpu0, t0 := cpuTime(), time.Now()
	res := cluster.Run(cfg, s.trace)
	t1 := time.Now()
	out := replayLap(len(s.trace.Invocations), t1.Sub(t0), cpuTime()-cpu0)
	out.startupMS = float64(res.TotalStartup()) / float64(time.Millisecond)
	out.colds = res.ColdStarts()
	out.outcome = resultDigest(res.PerWorker...)
	served := 0
	for _, w := range res.PerWorker {
		served += w.Metrics.Count()
	}
	if traced {
		for _, lt := range layers {
			lt.mergeInto(&s.tot.layers)
		}
		for _, w := range res.PerWorker {
			s.tot.addResult(w)
		}
		s.tot.laps++
		s.tot.invs += out.ops
		s.tot.hostNS += int64(out.cpu)
		s.tot.rootSpans = append(s.tot.rootSpans, span{Name: "cluster.run", Req: -1, Start: since(t0), End: since(t1)})
		// The front end alone, over the same trace: cluster.Run does
		// not expose its phases, so routing is timed separately.
		r0 := time.Now()
		routed := cluster.Route("p2c", cluster.RouterConfig{Workers: clusterWorkers, Seed: clusterRouterSeed}, s.trace, 0, nil)
		routeS := time.Since(r0).Seconds()
		s.tot.routeNS += routeS * 1e9
		s.tot.routeCalls += out.ops
		s.tot.workerSimS += out.wall.Seconds() - routeS
		max := 0
		for i, n := range routed {
			if n != res.Routed[i] {
				return out, fmt.Errorf("cluster.Route sent %d invocations to worker %d, cluster.Run %d", n, i, res.Routed[i])
			}
			if n > max {
				max = n
			}
		}
		s.tot.imbalance = ratio(float64(max), float64(out.ops)/clusterWorkers)
	}
	if served != out.ops {
		out.failed = out.ops - served
		return out, fmt.Errorf("cluster.Run served %d of %d invocations", served, out.ops)
	}
	return out, nil
}

func (s *simCluster) inputDigest() string { return s.digest }

func (s *simCluster) setupValues() map[string]float64 { return s.build.values() }

func (s *simCluster) layerValues() (map[string]float64, error) {
	v, err := s.tot.values(false)
	v["cluster.route_ns_per_inv"] = ratio(s.tot.routeNS, float64(s.tot.routeCalls))
	v["cluster.worker_sim_s"] = ratio(s.tot.workerSimS, float64(s.tot.laps))
	v["cluster.routed_imbalance"] = s.tot.imbalance
	return v, err
}

func (s *simCluster) spans() []span { return append(s.tot.rootSpans, s.tot.layers.spans...) }
