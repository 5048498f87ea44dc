// Package api exposes the serverless-platform simulator over HTTP, in
// the style of an OpenFaaS/OpenWhisk gateway: clients invoke functions,
// the gateway schedules them onto warm containers via the configured
// policy, and reports startup metrics. Virtual time advances with
// explicit per-request timestamps (for reproducible drives) or with the
// wall clock since the gateway started.
//
// Endpoints:
//
//	POST /invoke            {"fn_id": 5, "at_ms": 1200}  → startup breakdown
//	GET  /stats             aggregate run metrics (incl. startup quantiles)
//	GET  /metrics           Prometheus exposition-format metrics
//	GET  /trace             Chrome trace_event JSON of the run so far
//	GET  /audit             scheduler decision audit log (JSONL)
//	GET  /functions         the function catalog
//	GET  /pool              current warm-pool contents
//	POST /reset             fresh platform, same configuration
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"mlcr/internal/image"
	"mlcr/internal/obs"
	"mlcr/internal/obs/perf"
	"mlcr/internal/platform"
	"mlcr/internal/pool"
	"mlcr/internal/trace"
	"mlcr/internal/workload"
)

// Config assembles a gateway.
type Config struct {
	// Functions is the invocable catalog (IDs must be unique).
	Functions []*workload.Function
	// PoolCapacityMB sizes the warm pool (<= 0 unlimited).
	PoolCapacityMB float64
	// NewScheduler builds the scheduling policy (fresh on every reset).
	NewScheduler func() platform.Scheduler
	// NewEvictor builds the pool eviction policy; nil = LRU.
	NewEvictor func() pool.Evictor
	// Clock supplies the gateway's notion of elapsed time, as a monotone
	// offset from an arbitrary origin. Nil means monotonic wall time
	// since construction — the production default. Tests inject a
	// virtual clock to drive timestamp-free requests deterministically.
	Clock perf.Clock
}

// WallClock returns the production Clock: monotonic wall time since the
// call. It is the one place the api package reads the wall clock; every
// other time observation derives from the injected Clock, keeping the
// package inside the walltime vet scope.
func WallClock() perf.Clock {
	start := time.Now() //mlcr:allow walltime production clock origin: requests arrive in real time; tests inject virtual clocks instead
	return func() time.Duration {
		return time.Since(start) //mlcr:allow walltime production clock reading behind the injected-Clock seam
	}
}

// Server is the HTTP gateway. It is safe for concurrent use; requests
// are serialized onto the single simulated platform.
type Server struct {
	cfg   Config
	byID  map[int]*workload.Function
	clock perf.Clock
	mu    sync.Mutex
	plat  *platform.Platform
	obs   *obs.Observer
	epoch time.Duration // clock() at the last reset
	seq   int
	mux   *http.ServeMux
}

// New creates a gateway server.
func New(cfg Config) (*Server, error) {
	byID, err := catalogByID(cfg.Functions, cfg.NewScheduler)
	if err != nil {
		return nil, err
	}
	clock := cfg.Clock
	if clock == nil {
		clock = WallClock()
	}
	s := &Server{cfg: cfg, byID: byID, clock: clock}
	s.resetLocked()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /invoke", s.handleInvoke)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /trace", s.handleTrace)
	mux.HandleFunc("GET /audit", s.handleAudit)
	mux.HandleFunc("GET /functions", s.handleFunctions)
	mux.HandleFunc("GET /pool", s.handlePool)
	mux.HandleFunc("POST /reset", s.handleReset)
	s.mux = mux
	return s, nil
}

// catalogByID validates what Server and Gateway both require of their
// configuration — a scheduler factory and a non-empty catalog of valid
// functions with unique IDs — and indexes the catalog.
func catalogByID(fns []*workload.Function, newScheduler func() platform.Scheduler) (map[int]*workload.Function, error) {
	if len(fns) == 0 {
		return nil, fmt.Errorf("api: no functions configured")
	}
	if newScheduler == nil {
		return nil, fmt.Errorf("api: NewScheduler required")
	}
	byID := make(map[int]*workload.Function, len(fns))
	for _, f := range fns {
		if err := f.Validate(); err != nil {
			return nil, fmt.Errorf("api: %w", err)
		}
		if _, dup := byID[f.ID]; dup {
			return nil, fmt.Errorf("api: duplicate function ID %d", f.ID)
		}
		byID[f.ID] = f
	}
	return byID, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) resetLocked() {
	var ev pool.Evictor
	if s.cfg.NewEvictor != nil {
		ev = s.cfg.NewEvictor()
	}
	s.obs = obs.NewObserver()
	s.epoch = s.clock()
	// The phase profiler observes the same injected clock as request
	// arrival, offset to the last reset — wall time in production (the
	// WallClock default), virtual time under test.
	s.obs.Perf = perf.New(func() time.Duration { return s.clock() - s.epoch })
	s.plat = platform.New(platform.Config{
		PoolCapacityMB: s.cfg.PoolCapacityMB,
		Evictor:        ev,
		Obs:            s.obs,
	}, s.cfg.NewScheduler())
	// A gateway serves an unbounded invocation stream; keeping every
	// sample or pool-series point would grow without limit — the HDR
	// behind StartupQuantile answers /stats in O(1) memory and the pool
	// peak comes from pool.Stats.
	s.plat.Results().Metrics.SetRetainSamples(false)
	s.plat.Results().PoolSeries.SetRetainPoints(false)
	s.seq = 0
}

// InvokeRequest is the POST /invoke body.
type InvokeRequest struct {
	FnID int `json:"fn_id"`
	// AtMS pins the virtual arrival time in milliseconds; omitted or
	// zero means "wall-clock time since gateway start". Arrivals must
	// be non-decreasing. AtMS and ExecMS must lie in [0, trace.MaxMS].
	AtMS int64 `json:"at_ms,omitempty"`
	// ExecMS overrides the function's mean execution time.
	ExecMS int64 `json:"exec_ms,omitempty"`
}

// InvokeResponse reports one scheduling outcome.
type InvokeResponse struct {
	Seq         int    `json:"seq"`
	FnID        int    `json:"fn_id"`
	ContainerID int    `json:"container_id"`
	Cold        bool   `json:"cold"`
	MatchLevel  string `json:"match_level"`
	StartupMS   int64  `json:"startup_ms"`
	Breakdown   struct {
		CreateMS  int64 `json:"create_ms"`
		CleanMS   int64 `json:"clean_ms"`
		PullMS    int64 `json:"pull_ms"`
		InstallMS int64 `json:"install_ms"`
		RtInitMS  int64 `json:"rt_init_ms"`
		FnInitMS  int64 `json:"fn_init_ms"`
	} `json:"breakdown"`
	VirtualTimeMS int64 `json:"virtual_time_ms"`
}

// invokeResponse renders one scheduling outcome served at virtual time
// at, shared between Server and Gateway.
func invokeResponse(seq, fnID int, res platform.Result, at time.Duration) InvokeResponse {
	out := InvokeResponse{
		Seq:           seq,
		FnID:          fnID,
		ContainerID:   res.ContainerID,
		Cold:          res.Cold,
		MatchLevel:    res.Level.String(),
		StartupMS:     res.Startup.Total().Milliseconds(),
		VirtualTimeMS: at.Milliseconds(),
	}
	out.Breakdown.CreateMS = res.Startup.Create.Milliseconds()
	out.Breakdown.CleanMS = res.Startup.Clean.Milliseconds()
	out.Breakdown.PullMS = res.Startup.Pull.Milliseconds()
	out.Breakdown.InstallMS = res.Startup.Install.Milliseconds()
	out.Breakdown.RtInitMS = res.Startup.RuntimeInit.Milliseconds()
	out.Breakdown.FnInitMS = res.Startup.FunctionInit.Milliseconds()
	return out
}

// maxInvokeBody caps a POST /invoke body. A well-formed InvokeRequest
// is under 100 bytes; the cap only bounds what a misbehaving client can
// make the decoder read.
const maxInvokeBody = 64 << 10

// decodeInvoke reads a POST /invoke body of at most maxInvokeBody bytes
// into req, shared between Server and Gateway. On failure it has
// answered 413 (body over the cap) or 400 (malformed JSON, or at_ms or
// exec_ms outside [0, trace.MaxMS], the bound under which Arrival +
// startup + Exec cannot overflow) and returns false.
func decodeInvoke(w http.ResponseWriter, r *http.Request, req *InvokeRequest) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxInvokeBody)).Decode(req)
	if err == nil {
		if req.AtMS >= 0 && req.AtMS <= trace.MaxMS && req.ExecMS >= 0 && req.ExecMS <= trace.MaxMS {
			return true
		}
		httpError(w, http.StatusBadRequest, "at_ms %d and exec_ms %d must lie in [0, %d]", req.AtMS, req.ExecMS, trace.MaxMS)
		return false
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		httpError(w, http.StatusRequestEntityTooLarge, "body over %d bytes", tooLarge.Limit)
	} else {
		httpError(w, http.StatusBadRequest, "malformed body: %v", err)
	}
	return false
}

func (s *Server) handleInvoke(w http.ResponseWriter, r *http.Request) {
	var req InvokeRequest
	if !decodeInvoke(w, r, &req) {
		return
	}
	fn, ok := s.byID[req.FnID]
	if !ok {
		httpError(w, http.StatusNotFound, "unknown function %d", req.FnID)
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	at := time.Duration(req.AtMS) * time.Millisecond
	if req.AtMS == 0 {
		at = s.clock() - s.epoch
	}
	if at < s.plat.Now() {
		httpError(w, http.StatusConflict, "arrival %v before virtual time %v", at, s.plat.Now())
		return
	}
	exec := fn.Exec
	if req.ExecMS > 0 {
		exec = time.Duration(req.ExecMS) * time.Millisecond
	}
	inv := &workload.Invocation{Seq: s.seq, Fn: fn, Arrival: at, Exec: exec}
	s.seq++
	res := s.plat.Invoke(inv)

	out := invokeResponse(inv.Seq, fn.ID, res, s.plat.Now())
	writeJSON(w, http.StatusOK, out)
}

// WriteMetricsText writes the metrics registry in Prometheus text
// exposition format — the shutdown-flush counterpart of GET /metrics.
func (s *Server) WriteMetricsText(w io.Writer) error {
	s.mu.Lock()
	o := s.obs
	o.PublishPerf()
	s.mu.Unlock()
	return o.Metrics.WritePrometheus(w)
}

// WriteTrace writes the run's Chrome trace_event JSON — the
// shutdown-flush counterpart of GET /trace.
func (s *Server) WriteTrace(w io.Writer) error {
	s.mu.Lock()
	rec := s.obs.Recording()
	s.mu.Unlock()
	return rec.WriteChromeTrace(w)
}

// ReuseCounts breaks warm starts down by match level.
type ReuseCounts struct {
	L1 int `json:"l1"`
	L2 int `json:"l2"`
	L3 int `json:"l3"`
}

// StartupQuantiles are startup-latency percentiles in milliseconds.
type StartupQuantiles struct {
	P50 int64 `json:"p50"`
	P95 int64 `json:"p95"`
	P99 int64 `json:"p99"`
}

// StatsResponse is the GET /stats body.
type StatsResponse struct {
	Policy           string           `json:"policy"`
	Invocations      int              `json:"invocations"`
	TotalStartupMS   int64            `json:"total_startup_ms"`
	AvgStartupMS     int64            `json:"avg_startup_ms"`
	StartupQuantiles StartupQuantiles `json:"startup_quantiles_ms"`
	ColdStarts       int              `json:"cold_starts"`
	WarmStarts       int              `json:"warm_starts"`
	ReuseByLevel     ReuseCounts      `json:"reuse_by_level"`
	WarmByLevel      [4]int           `json:"warm_by_level"`
	PoolUsedMB       float64          `json:"pool_used_mb"`
	PoolPeakMB       float64          `json:"pool_peak_mb"`
	Evictions        int              `json:"evictions"`
	Rejections       int              `json:"rejections"`
	Expirations      int              `json:"expirations"`
	// PolicyErrors counts scheduler choices that named no reusable
	// container and were served as cold starts instead.
	PolicyErrors int `json:"policy_errors"`
}

// Stats snapshots the run counters — the GET /stats body.
func (s *Server) Stats() StatsResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	res := s.plat.Results()
	stats := s.plat.Pool().Stats()
	// Quantiles come from the collector's streaming HDR histogram:
	// bounded memory however long the gateway has been serving, ≤3.1%
	// relative error (internal/obs/perf).
	quantMS := func(p float64) int64 {
		return res.Metrics.StartupQuantile(p / 100).Milliseconds()
	}
	lv := res.Metrics.ByLevel()
	return StatsResponse{
		Policy:         res.Policy,
		Invocations:    res.Metrics.Count(),
		TotalStartupMS: res.Metrics.TotalStartup().Milliseconds(),
		AvgStartupMS:   res.Metrics.AvgStartup().Milliseconds(),
		StartupQuantiles: StartupQuantiles{
			P50: quantMS(50), P95: quantMS(95), P99: quantMS(99),
		},
		ColdStarts:   res.Metrics.ColdStarts(),
		WarmStarts:   res.Metrics.WarmStarts(),
		ReuseByLevel: ReuseCounts{L1: lv[1], L2: lv[2], L3: lv[3]},
		WarmByLevel:  lv,
		PoolUsedMB:   s.plat.Pool().UsedMB(),
		PoolPeakMB:   stats.PeakUsedMB,
		Evictions:    stats.Evictions,
		Rejections:   stats.Rejections,
		Expirations:  stats.Expirations,
		PolicyErrors: res.PolicyErrors,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleMetrics serves the metrics registry in Prometheus text
// exposition format (version 0.0.4), refreshing the per-phase profiler
// summaries (mlcr_phase_seconds) at scrape time.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	o := s.obs
	o.PublishPerf()
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = o.Metrics.WritePrometheus(w)
}

// handleTrace serves the run's trace in Chrome trace_event JSON,
// openable in chrome://tracing or Perfetto.
func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	rec := s.obs.Recording()
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = rec.WriteChromeTrace(w)
}

// handleAudit serves the scheduler decision audit log as JSONL.
func (s *Server) handleAudit(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	a := s.obs.Audit
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/jsonl")
	_ = a.WriteJSONL(w)
}

// FunctionInfo is one catalog entry of GET /functions.
type FunctionInfo struct {
	ID          int    `json:"id"`
	Name        string `json:"name"`
	Description string `json:"description"`
	OS          string `json:"os"`
	Language    string `json:"language"`
	ColdStartMS int64  `json:"cold_start_ms"`
	MemoryMB    int    `json:"memory_mb"`
}

func (s *Server) handleFunctions(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, functionCatalog(s.cfg.Functions))
}

// functionCatalog renders the GET /functions body, shared between the
// deterministic Server and the concurrent Gateway.
func functionCatalog(fns []*workload.Function) []FunctionInfo {
	out := make([]FunctionInfo, 0, len(fns))
	for _, f := range fns {
		info := FunctionInfo{
			ID: f.ID, Name: f.Name, Description: f.Description,
			ColdStartMS: f.ColdStartTime().Milliseconds(),
			MemoryMB:    int(f.MemoryMB),
		}
		if ps := f.Image.AtLevel(image.OS); len(ps) > 0 {
			info.OS = biggest(ps)
		}
		if ps := f.Image.AtLevel(image.Language); len(ps) > 0 {
			info.Language = biggest(ps)
		}
		out = append(out, info)
	}
	return out
}

func biggest(ps []image.Package) string {
	b := ps[0]
	for _, p := range ps[1:] {
		if p.SizeMB > b.SizeMB {
			b = p
		}
	}
	return b.Name
}

// PoolEntry is one warm container in GET /pool.
type PoolEntry struct {
	ContainerID int     `json:"container_id"`
	FnID        int     `json:"fn_id"`
	MemoryMB    float64 `json:"memory_mb"`
	IdleSinceMS int64   `json:"idle_since_ms"`
	UseCount    int     `json:"use_count"`
}

func (s *Server) handlePool(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []PoolEntry
	for _, c := range s.plat.Pool().Idle() {
		out = append(out, PoolEntry{
			ContainerID: c.ID, FnID: c.FnID, MemoryMB: c.MemoryMB,
			IdleSinceMS: int64(c.IdleSince / time.Millisecond), UseCount: c.UseCount,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleReset(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resetLocked()
	writeJSON(w, http.StatusOK, map[string]string{"status": "reset"})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
