// Package api serves the serverless-platform simulator over HTTP, in
// the style of an OpenFaaS/OpenWhisk gateway: clients invoke functions,
// the gateway schedules them onto warm containers via the configured
// policy, and reports startup metrics. Virtual time advances with
// explicit per-request timestamps (for reproducible drives) or with the
// wall clock since the gateway started. Gateway (gateway.go) is the one
// serving implementation.
//
// Endpoints:
//
//	POST /invoke            {"fn_id": 5, "at_ms": 1200}  → startup breakdown
//	GET  /stats             aggregate run metrics (incl. startup quantiles)
//	GET  /metrics           Prometheus exposition-format metrics
//	GET  /trace             Chrome trace_event JSON of the run so far (Observe only)
//	GET  /audit             scheduler decision audit log derived from the trace, JSONL (Observe only)
//	GET  /functions         the function catalog
//	GET  /pool              current warm-pool contents
//	GET  /healthz           liveness
//	POST /reset             fresh pools and schedulers, same configuration
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"mlcr/internal/image"
	"mlcr/internal/obs/perf"
	"mlcr/internal/platform"
	"mlcr/internal/trace"
	"mlcr/internal/workload"
)

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

// catalogByID validates what a gateway requires of its configuration —
// a scheduler factory and a non-empty catalog of valid functions with
// unique IDs — and indexes the catalog.
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

// InvokeRequest is the POST /invoke body.
type InvokeRequest struct {
	FnID int `json:"fn_id"`
	// AtMS pins the virtual arrival time in milliseconds; omitted or
	// zero means "wall-clock time since gateway start". An arrival
	// behind its shard's clock is served at the clock. AtMS and ExecMS
	// must lie in [0, trace.MaxMS].
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
	// VirtualTimeMS is the instant the invocation was served at.
	VirtualTimeMS int64 `json:"virtual_time_ms"`
}

// invokeResponse renders one scheduling outcome served at virtual time
// at.
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
// into req. On failure it has answered 413 (body over the cap) or 400
// (malformed JSON, or at_ms or exec_ms outside [0, trace.MaxMS], the
// bound under which Arrival + startup + Exec cannot overflow) and
// returns false.
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

// functionCatalog renders the GET /functions body.
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

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
