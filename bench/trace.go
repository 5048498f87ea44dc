package main

// Outside-in tracing: the benchmark wraps the interfaces the program
// already accepts (http.Handler, platform.Scheduler, evict.Policy) and
// times the calls crossing them. Every call is aggregated (count, busy
// time); full spans are kept in memory for a 1-in-N sample and written
// as JSONL when the run ends. Nothing inside the program is touched.

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mlcr/internal/container"
	"mlcr/internal/drl"
	"mlcr/internal/evict"
	"mlcr/internal/mlcr"
	"mlcr/internal/nn"
	"mlcr/internal/obs/perf"
	"mlcr/internal/platform"
	"mlcr/internal/pool"
	"mlcr/internal/workload"
)

// Sampling periods of full spans and of the benchmark's own probes
// (featurize / forward / pool match are re-run by the wrapper, so they
// are sampled, not run on every call).
const (
	httpSampleEvery = 64
	simSampleEvery  = 1024
	probeEvery      = 64
)

var processStart = time.Now()

// span is one sampled interval. Req is the request or invocation index
// (-1 when the call is not tied to one, e.g. an evictor hook run while
// draining completions). Times are ns since process start.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Shard  int    `json:"shard"` // gateway shard or cluster worker; 0 elsewhere
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

func since(t time.Time) int64 { return int64(t.Sub(processStart)) }

// stat aggregates every call across one boundary.
type stat struct {
	calls int64
	ns    int64
}

func (s *stat) add(d time.Duration) { s.calls++; s.ns += int64(d) }
func (s *stat) merge(o stat)        { s.calls += o.calls; s.ns += o.ns }
func (s stat) mean() float64        { return ratio(float64(s.ns), float64(s.calls)) }

// layerTrace holds the wrappers' state for one platform or gateway
// shard. All calls into one scheduler/evictor pair are serialized by
// the program (the simulation is single-threaded, a shard holds its
// mutex), so the fields need no lock; readers take them after the run
// has been joined.
type layerTrace struct {
	root        string // parent span name of this layer's spans
	shard       int
	sampleEvery int64
	reqOf       func(inv *workload.Invocation) int64 // request index of an invocation, -1 unknown

	schedule  stat
	onResult  stat
	coldPicks int64
	pick      stat
	hook      stat
	refused   int64
	adds      int64
	featurize stat
	forward   stat
	match     stat
	matchCand int64

	cur   int64 // sampled request in flight between Schedule and OnResult, else -1
	spans []span
}

func newLayerTrace(root string, sampleEvery int64, reqOf func(*workload.Invocation) int64) *layerTrace {
	return &layerTrace{root: root, sampleEvery: sampleEvery, reqOf: reqOf, cur: -1}
}

func (lt *layerTrace) record(name string, req int64, t0, t1 time.Time) {
	lt.spans = append(lt.spans, span{Name: name, Req: req, Shard: lt.shard, Start: since(t0), End: since(t1), Parent: lt.root})
}

func (lt *layerTrace) mergeInto(dst *layerTrace) {
	dst.schedule.merge(lt.schedule)
	dst.onResult.merge(lt.onResult)
	dst.coldPicks += lt.coldPicks
	dst.pick.merge(lt.pick)
	dst.hook.merge(lt.hook)
	dst.refused += lt.refused
	dst.adds += lt.adds
	dst.featurize.merge(lt.featurize)
	dst.forward.merge(lt.forward)
	dst.match.merge(lt.match)
	dst.matchCand += lt.matchCand
	dst.spans = append(dst.spans, lt.spans...)
}

// mlcrProbe re-runs the MLCR scheduler's two inner steps on the same
// (env, inv) with the benchmark's own featurizer and a private copy of
// the network, so their cost is read without reaching into the
// scheduler. Both steps only read the pool. One probe serves all shards
// of a gateway (its weights stay as warm in cache as the scheduler's
// own), hence the lock; probes are rare enough not to contend.
type mlcrProbe struct {
	mu   sync.Mutex
	feat *drl.Featurizer
	net  *drl.QNetwork
	q    *nn.Tensor
}

func newMLCRProbe(master *mlcr.Scheduler) *mlcrProbe {
	cfg := master.Config()
	return &mlcrProbe{
		feat: &drl.Featurizer{Slots: cfg.Slots, NormMB: cfg.NormMB, NormTime: cfg.NormTime},
		net:  master.Clone().Agent().Online(),
	}
}

// tracedScheduler times Schedule and OnResult of the wrapped policy.
type tracedScheduler struct {
	inner platform.Scheduler
	lt    *layerTrace
	probe *mlcrProbe // nil for non-MLCR policies
	cands []pool.MatchCandidate
	seen  int64
}

func (s *tracedScheduler) Name() string { return s.inner.Name() }

// SetProfiler forwards the optional interface platform.New asserts.
func (s *tracedScheduler) SetProfiler(p *perf.Profiler) {
	if pa, ok := s.inner.(interface{ SetProfiler(*perf.Profiler) }); ok {
		pa.SetProfiler(p)
	}
}

// Evictor forwards the optional interface the gateway asserts.
func (s *tracedScheduler) Evictor() pool.Evictor {
	if p, ok := s.inner.(interface{ Evictor() pool.Evictor }); ok {
		return p.Evictor()
	}
	return nil
}

func (s *tracedScheduler) Schedule(env platform.Env, inv *workload.Invocation) int {
	lt := s.lt
	req := lt.reqOf(inv)
	sampled := req >= 0 && req%lt.sampleEvery == 0
	if s.seen%probeEvery == 0 {
		s.runProbes(env, inv, req, sampled)
	}
	s.seen++
	if sampled {
		lt.cur = req
	}
	t0 := time.Now()
	choice := s.inner.Schedule(env, inv)
	t1 := time.Now()
	lt.schedule.add(t1.Sub(t0))
	if choice == platform.ColdStart {
		lt.coldPicks++
	}
	if sampled {
		lt.record("schedule", req, t0, t1)
	}
	return choice
}

func (s *tracedScheduler) runProbes(env platform.Env, inv *workload.Invocation, req int64, sampled bool) {
	lt := s.lt
	t0 := time.Now()
	s.cands = env.Pool.AppendMatches(s.cands[:0], inv.Fn.Image)
	t1 := time.Now()
	lt.match.add(t1.Sub(t0))
	lt.matchCand += int64(len(s.cands))
	if sampled {
		lt.record("probe.pool_match", req, t0, t1)
	}
	if s.probe == nil {
		return
	}
	s.probe.mu.Lock()
	defer s.probe.mu.Unlock()
	t0 = time.Now()
	st := s.probe.feat.Build(env, inv)
	t1 = time.Now()
	s.probe.q = s.probe.net.ForwardInto(s.probe.q, st.X)
	t2 := time.Now()
	lt.featurize.add(t1.Sub(t0))
	lt.forward.add(t2.Sub(t1))
	if sampled {
		lt.record("probe.featurize", req, t0, t1)
		lt.record("probe.forward", req, t1, t2)
	}
}

func (s *tracedScheduler) OnResult(env platform.Env, inv *workload.Invocation, res platform.Result) {
	lt := s.lt
	t0 := time.Now()
	s.inner.OnResult(env, inv, res)
	t1 := time.Now()
	lt.onResult.add(t1.Sub(t0))
	if lt.cur >= 0 {
		lt.record("on_result", lt.cur, t0, t1)
		lt.cur = -1
	}
}

// tracedEvictor times every evict.Policy method of the wrapped policy.
type tracedEvictor struct {
	inner evict.Policy
	lt    *layerTrace
}

// tracedTTLEvictor additionally forwards evict.PerContainerTTL, which
// the pool asserts on its evictor.
type tracedTTLEvictor struct {
	tracedEvictor
	ttl evict.PerContainerTTL
}

func (e *tracedTTLEvictor) TTLFor(c *container.Container) time.Duration { return e.ttl.TTLFor(c) }

func wrapEvictor(inner evict.Policy, lt *layerTrace) evict.Policy {
	te := tracedEvictor{inner: inner, lt: lt}
	if ttl, ok := inner.(evict.PerContainerTTL); ok {
		return &tracedTTLEvictor{tracedEvictor: te, ttl: ttl}
	}
	return &te
}

func (e *tracedEvictor) Name() string       { return e.inner.Name() }
func (e *tracedEvictor) Admit() bool        { return e.inner.Admit() }
func (e *tracedEvictor) TTL() time.Duration { return e.inner.TTL() }

// done accounts one evictor call into st: a span when a sampled request
// is in flight, otherwise one in sampleEvery calls untied to a request.
func (e *tracedEvictor) done(st *stat, name string, t0 time.Time) {
	lt := e.lt
	t1 := time.Now()
	st.add(t1.Sub(t0))
	if lt.cur >= 0 {
		lt.record(name, lt.cur, t0, t1)
	} else if st.calls%lt.sampleEvery == 0 {
		lt.record(name, -1, t0, t1)
	}
}

func (e *tracedEvictor) OnAdd(c *container.Container, cost, now time.Duration) {
	t0 := time.Now()
	e.inner.OnAdd(c, cost, now)
	e.lt.adds++
	e.done(&e.lt.hook, "evict.on_add", t0)
}

func (e *tracedEvictor) OnUse(c *container.Container, now time.Duration) {
	t0 := time.Now()
	e.inner.OnUse(c, now)
	e.done(&e.lt.hook, "evict.on_use", t0)
}

func (e *tracedEvictor) OnRemove(c *container.Container, reason string) {
	t0 := time.Now()
	e.inner.OnRemove(c, reason)
	e.done(&e.lt.hook, "evict.on_remove", t0)
}

func (e *tracedEvictor) OnTick(now time.Duration) {
	t0 := time.Now()
	e.inner.OnTick(now)
	e.done(&e.lt.hook, "evict.on_tick", t0)
}

func (e *tracedEvictor) PickVictim(now time.Duration) *container.Container {
	t0 := time.Now()
	c := e.inner.PickVictim(now)
	if c == nil {
		e.lt.refused++
	}
	e.done(&e.lt.pick, "evict.pick_victim", t0)
	return c
}

// tracedHandler spans the program's http.Handler. The client sends the
// request index in X-Bench-Req.
type tracedHandler struct {
	inner http.Handler
	calls atomic.Int64
	ns    atomic.Int64
	mu    sync.Mutex
	spans []span
}

func (h *tracedHandler) reset() {
	h.calls.Store(0)
	h.ns.Store(0)
	h.spans = nil
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.inner.ServeHTTP(w, r)
	t1 := time.Now()
	v := r.Header.Get("X-Bench-Req")
	if v == "" {
		return // /stats, /reset: not part of the measured sequence
	}
	h.calls.Add(1)
	h.ns.Add(int64(t1.Sub(t0)))
	if req, err := strconv.ParseInt(v, 10, 64); err == nil && req%httpSampleEvery == 0 {
		h.mu.Lock()
		h.spans = append(h.spans, span{Name: "api.handler", Req: req, Start: since(t0), End: since(t1), Parent: "client.request"})
		h.mu.Unlock()
	}
}

// writeSpans writes spans as JSONL, one object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
