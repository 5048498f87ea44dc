// Package obs is the repository's observability layer, two pillars
// and an export shared by the simulator, the HTTP gateway and the
// training loop:
//
//   - a structured trace: typed events (Event) with virtual timestamps,
//     collected by a Recorder and exportable as JSONL or as the
//     Chrome trace_event format (viewable in chrome://tracing/Perfetto).
//     The scheduler decision audit is a reduction of that one stream
//     (Decisions, Recorder.WriteAuditJSONL): for every invocation, the
//     candidate set the policy saw, per-candidate match levels and prune
//     reasons, the chosen action and the realized reward;
//   - a phase profiler (obs/perf.Profiler): scoped timers with an
//     injected clock around the simulator's hot phases, aggregated into
//     fixed-footprint HDR histograms;
//   - a Prometheus export (WritePrometheus): the one exposition writer.
//     Metrics are a reduction of the run, not a live registry: each
//     producer derives its counters, gauges and HDR summaries from
//     results it already keeps (platform.RunResult, cluster.Result, the
//     gateway's Stats, PhaseMetrics of a profiler) when the export is
//     written.
//
// Both pillars are optional and nil-safe: a disabled Observer costs a
// nil check per instrumentation point, so determinism and performance
// of unobserved runs are unchanged (see BenchmarkDisabledTracer and
// perf.BenchmarkDisabledSpan). The export needs no Observer at all.
package obs

import (
	"time"

	"mlcr/internal/obs/perf"
)

// Kind identifies the type of a trace event.
type Kind uint8

const (
	// KindEventFired is emitted by the platform for every completion it
	// retires; Detail names the finishing container (e.g. "finish/c12").
	// Arrivals appear as KindInvocationArrived.
	KindEventFired Kind = iota + 1
	// KindInvocationArrived marks an invocation reaching the platform.
	KindInvocationArrived
	// KindMatchAttempted records multi-level matching of one idle
	// container against the arriving invocation; Detail holds the prune
	// reason (PruneNoMatch, PruneWorseThanCold) or "" for a viable
	// candidate, Dur the estimated startup of reusing it.
	KindMatchAttempted
	// KindScheduleDecided records one invocation's decision and its
	// outcome: Action is the chosen container ID or -1 for a cold start,
	// Container the container that served it, Cold whether it was
	// created, Level the realized match level and Dur the realized
	// startup latency.
	KindScheduleDecided
	// KindContainerEvicted marks a container leaving the pool
	// involuntarily; Detail holds the reason (capacity, expired,
	// rejected, oversize).
	KindContainerEvicted
	// KindVolumeSwapped records a container-cleaner repack on a
	// cross-function reuse.
	KindVolumeSwapped
	// KindTrainStep reports one DQN gradient update; Step is the update
	// counter, Value the mean absolute TD error.
	KindTrainStep
)

// String returns the snake_case kind name used in JSONL exports.
func (k Kind) String() string {
	switch k {
	case KindEventFired:
		return "event_fired"
	case KindInvocationArrived:
		return "invocation_arrived"
	case KindMatchAttempted:
		return "match_attempted"
	case KindScheduleDecided:
		return "schedule_decided"
	case KindContainerEvicted:
		return "container_evicted"
	case KindVolumeSwapped:
		return "volume_swapped"
	case KindTrainStep:
		return "train_step"
	default:
		return "unknown"
	}
}

// Prune reasons attached to KindMatchAttempted events, and so to audit
// candidates.
const (
	// PruneNoMatch means the OS level differs: reuse is impossible.
	PruneNoMatch = "no-match"
	// PruneWorseThanCold means the estimated warm start costs at least
	// as much as a cold start (the mask's "manifestly erroneous" rule).
	PruneWorseThanCold = "worse-than-cold"
)

// Event is one structured trace record. It is a flat struct — no
// interfaces, no allocations — so constructing and discarding one when
// tracing is disabled is nearly free. Fields not applicable to a Kind
// are left zero; Seq and Fn use -1 for "not applicable" since 0 is a
// valid sequence number and function ID.
type Event struct {
	Kind Kind
	// At is the virtual timestamp of the event.
	At time.Duration
	// Seq is the invocation sequence number (-1 when not applicable).
	Seq int
	// Fn is the function ID (-1 when not applicable).
	Fn int
	// Container is the container ID (0 when not applicable).
	Container int
	// Level is the match level (0 = cold/no-match, 1..3 = L1..L3).
	Level int
	// Action is the scheduler's chosen action: container ID or -1 cold.
	Action int
	// Cold reports whether the decision cold-started a sandbox.
	Cold bool
	// Dur is a duration payload (estimated or realized startup).
	Dur time.Duration
	// Value is a scalar payload (reward, TD error).
	Value float64
	// Step is the training-step counter for KindTrainStep.
	Step int
	// Detail is a short string payload: completion name, prune reason
	// or eviction reason (one of evict.Reason*).
	Detail string
}

// Observer bundles the two pillars. Either field may be nil to disable
// that pillar; a nil *Observer disables both. The decision audit is
// derived from Trace, so auditing a run means tracing it. All methods
// are nil-receiver safe so instrumented code needs no nil checks beyond
// the guards below.
type Observer struct {
	Trace *Recorder
	// Perf aggregates scoped hot-path timings. Unlike the trace it
	// needs a clock, so NewObserver leaves it nil; enable it with
	// perf.New and an injected clock (a deterministic counter in tests,
	// wall time in the gateway).
	Perf *perf.Profiler
}

// NewObserver returns an Observer with the clock-free pillar enabled: a
// fresh Recorder (the trace and, derived from it, the decision audit).
// Perf stays nil until the caller injects a clock.
func NewObserver() *Observer {
	return &Observer{Trace: NewRecorder()}
}

// Emit records the event in the trace; a no-op when disabled.
func (o *Observer) Emit(ev Event) {
	if o == nil || o.Trace == nil {
		return
	}
	o.Trace.Emit(ev)
}

// Tracing reports whether trace events are being collected. Hot paths
// use it to skip event construction entirely.
func (o *Observer) Tracing() bool { return o != nil && o.Trace != nil }

// Profiler returns the perf pillar (nil when disabled), for handing to
// components that take a *perf.Profiler directly.
func (o *Observer) Profiler() *perf.Profiler {
	if o == nil {
		return nil
	}
	return o.Perf
}
