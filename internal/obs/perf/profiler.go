package perf

import "time"

// Phase identifies one instrumented hot-path phase of the simulator.
// The taxonomy is fixed and small so the profiler can hold one HDR per
// phase in a flat array with no map lookups on the hot path.
type Phase uint8

const (
	// PhaseDispatch is one completion retired by the platform: the
	// container's return to the pool and its bookkeeping
	// (internal/platform). An arrival's scheduling is not inside it.
	PhaseDispatch Phase = iota
	// PhaseSchedule is one scheduler decision: featurize + policy
	// (internal/platform calling platform.Scheduler.Schedule).
	PhaseSchedule
	// PhaseNNForward is one Q-network forward pass inside the MLCR
	// scheduler (internal/mlcr → internal/drl → internal/nn).
	PhaseNNForward
	// PhasePoolScan is one multi-level index scan for matching warm
	// containers (pool.AppendMatches).
	PhasePoolScan
	// PhasePoolEvict is one eviction victim selection inside pool.Add,
	// repeated until the admission fits.
	PhasePoolEvict
	// PhaseRoute is one cluster routing decision (internal/cluster).
	PhaseRoute

	// NumPhases bounds the taxonomy; new phases go above it.
	NumPhases
)

var phaseNames = [NumPhases]string{
	PhaseDispatch:  "dispatch",
	PhaseSchedule:  "schedule",
	PhaseNNForward: "nn_forward",
	PhasePoolScan:  "pool_scan",
	PhasePoolEvict: "pool_evict",
	PhaseRoute:     "route",
}

// String returns the stable lower_snake name used in exports.
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// Clock supplies the profiler's notion of time as a monotone offset
// from an arbitrary origin. It is always injected — the profiler never
// reads wall time itself, so deterministic packages can instrument
// their hot paths and stay clean under the walltime analyzer. Callers
// that genuinely want wall time pass a closure over a monotonic
// wall-clock reading from a package where that is permitted.
type Clock func() time.Duration

// Profiler aggregates scoped timings into one HDR per phase. A nil
// *Profiler is the disabled profiler: Start and Span.End on it are
// single-branch no-ops with zero allocations, cheap enough to leave in
// hot paths unconditionally. Not safe for concurrent use — each
// platform run owns its own instance, mirroring the rest of the
// observability layer.
type Profiler struct {
	clock  Clock
	phases [NumPhases]HDR
}

// New builds a profiler around the injected clock. Panics on a nil
// clock: a Profiler that cannot read time is expressed as a nil
// *Profiler, not a broken one.
func New(clock Clock) *Profiler {
	if clock == nil {
		panic("perf: New requires a clock; use a nil *Profiler to disable profiling")
	}
	return &Profiler{clock: clock}
}

// Span is an in-flight scoped timing. The zero Span (from a disabled
// profiler) is inert; End on it does nothing. Spans are values — no
// allocation per scope.
type Span struct {
	p     *Profiler
	start time.Duration
	phase Phase
}

// Start opens a scoped timing for the phase. On a nil profiler it
// returns the inert zero Span without reading the clock.
func (p *Profiler) Start(phase Phase) Span {
	if p == nil {
		return Span{}
	}
	return Span{p: p, phase: phase, start: p.clock()}
}

// End closes the span, recording its elapsed clock offset into the
// phase histogram. Inert on the zero Span. The body is a single inlined
// nil check; the recording slow path lives in record so a disabled
// scope costs two branches and nothing else.
func (s Span) End() {
	if s.p == nil {
		return
	}
	s.p.record(s)
}

// record is End's enabled slow path, kept out of End so End stays
// within the inlining budget.
func (p *Profiler) record(s Span) {
	p.phases[s.phase].Record(int64(p.clock() - s.start))
}

// Phase exposes the live histogram for one phase (nil on a nil
// profiler or out-of-range phase). Callers must not retain it across
// the owning run's lifetime.
func (p *Profiler) Phase(phase Phase) *HDR {
	if p == nil || phase >= NumPhases {
		return nil
	}
	return &p.phases[phase]
}

// Clock returns the injected clock (nil on a nil profiler). Callers
// that fan work out across goroutines use it to build one private
// Profiler per shard — the Profiler itself is not concurrency-safe —
// and Merge the shards back afterwards.
func (p *Profiler) Clock() Clock {
	if p == nil {
		return nil
	}
	return p.clock
}

// Reset clears every phase histogram, keeping the clock.
func (p *Profiler) Reset() {
	if p == nil {
		return
	}
	for i := range p.phases {
		p.phases[i].Reset()
	}
}

// Merge adds other's phase populations into p (both may be nil).
func (p *Profiler) Merge(other *Profiler) {
	if p == nil || other == nil {
		return
	}
	for i := range p.phases {
		p.phases[i].Merge(&other.phases[i])
	}
}
