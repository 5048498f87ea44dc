package experiments

import (
	"fmt"
	"runtime"
	"time"

	"mlcr/internal/obs/perf"
	"mlcr/internal/platform"
	"mlcr/internal/report"
	"mlcr/internal/workload"
)

// OverheadResult reports the scheduler-overhead analysis of Section VI-D:
// the wall-clock cost of one MLCR scheduling decision (featurization +
// Q-network inference) versus the startup latency it optimizes.
type OverheadResult struct {
	Decisions      int
	MeanInference  time.Duration
	P50Inference   time.Duration
	P99Inference   time.Duration
	MeanSavingWarm time.Duration // average latency saved per warm start vs cold
	// AllocsPerDecision is the steady-state heap allocations of one
	// inference decision through the workspace-reusing hot path
	// (featurization + Q-network forward); the optimized path holds this
	// at zero.
	AllocsPerDecision float64
}

// Overhead measures decision latency by replaying the overall workload
// through a trained MLCR scheduler and timing every Schedule call with
// the wall clock (the one experiment where wall time is the measurand).
func (s *Study) Overhead() OverheadResult {
	w, loose, trained := s.overall(s.opts)
	TuneMargin(trained, w, loose, s.opts.Parallelism)

	// The replay below stays sequential and off the harness: wall-clock
	// decision latency is the measurand, and concurrent runs would
	// contend for the CPU being timed.
	timer := &timingScheduler{inner: trained}
	res := platform.New(platform.Config{PoolCapacityMB: loose, Evictor: trained.Evictor()}, timer).Run(w)

	var saved time.Duration
	warm := 0
	for i, smp := range res.Metrics.Samples() {
		if !smp.Cold {
			saved += w.Invocations[i].Fn.ColdStartTime() - smp.Startup
			warm++
		}
	}
	out := OverheadResult{Decisions: int(timer.times.Count())}
	if warm > 0 {
		out.MeanSavingWarm = saved / time.Duration(warm)
	}
	if timer.times.Count() > 0 {
		out.MeanInference = time.Duration(timer.times.Mean())
		out.P50Inference = time.Duration(timer.times.Quantile(0.50))
		out.P99Inference = time.Duration(timer.times.Quantile(0.99))
	}
	out.AllocsPerDecision = allocsPerDecision(timer)
	return out
}

// allocsPerDecision measures the steady-state heap allocations of
// repeated inference decisions at the last decision point of the timed
// replay, which has warmed the scheduler's workspaces.
func allocsPerDecision(t *timingScheduler) float64 {
	if t.env.Pool == nil || t.inv == nil {
		return 0
	}
	// One extra decision warms any lazily grown workspace, then the
	// steady state is measured over repeated decisions at the captured
	// decision point.
	t.inner.Schedule(t.env, t.inv)
	const rounds = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		t.inner.Schedule(t.env, t.inv)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / rounds
}

// timingScheduler wraps a scheduler and records wall-clock decision
// times into a streaming HDR, so timing a trace-scale replay costs a
// fixed ~15 KiB instead of one slice slot per decision. It keeps the
// last decision point, so the allocation probe can re-issue a realistic
// Schedule call outside the simulation.
type timingScheduler struct {
	inner platform.Scheduler
	times perf.HDR
	env   platform.Env
	inv   *workload.Invocation
}

func (t *timingScheduler) Name() string { return t.inner.Name() }

func (t *timingScheduler) Schedule(env platform.Env, inv *workload.Invocation) int {
	t.env, t.inv = env, inv
	start := time.Now() //mlcr:allow walltime the overhead experiment measures real per-decision latency
	choice := t.inner.Schedule(env, inv)
	t.times.RecordDuration(time.Since(start)) //mlcr:allow walltime real latency measurement, reported not simulated
	return choice
}

func (t *timingScheduler) OnResult(env platform.Env, inv *workload.Invocation, res platform.Result) {
	t.inner.OnResult(env, inv, res)
}

// Table renders the overhead analysis.
func (r OverheadResult) Table() *report.Table {
	t := &report.Table{
		Title:  "Section VI-D — MLCR scheduler overhead",
		Header: []string{"metric", "value"},
	}
	t.AddRow("decisions timed", r.Decisions)
	t.AddRow("mean inference latency", fmt.Sprintf("%v", r.MeanInference))
	t.AddRow("p50 inference latency", fmt.Sprintf("%v", r.P50Inference))
	t.AddRow("p99 inference latency", fmt.Sprintf("%v", r.P99Inference))
	t.AddRow("steady-state allocs per decision", fmt.Sprintf("%.1f", r.AllocsPerDecision))
	t.AddRow("mean latency saved per warm start", report.FmtDur(r.MeanSavingWarm))
	t.Caption = "paper: 3–4 ms per decision on a V100; savings range from tens of ms to seconds"
	return t
}
