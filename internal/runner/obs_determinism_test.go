package runner_test

import (
	"strings"
	"testing"
	"time"

	"mlcr/internal/obs"
	"mlcr/internal/obs/perf"
	"mlcr/internal/runner"
)

// TestFingerprintUnchangedByObservability is the observability
// determinism guard: the same sweep run bare and run with the full
// observer bundle — tracer (which the decision audit is derived from)
// AND the phase profiler on a deterministic counter clock — must
// produce identical result
// fingerprints at any parallelism. Fingerprint serializes the
// simulation outcome only, so turning profiling on can never change
// what a run computes. The per-observer dispatch-span count proves the
// compared runs were instrumented, not disabled.
func TestFingerprintUnchangedByObservability(t *testing.T) {
	runs := sweepRuns(t)
	plain := runSweep(runs, 1, nil)

	observers := make([]*obs.Observer, len(runs))
	observed := runSweep(runs, 8, func(i int) *obs.Observer {
		o := obs.NewObserver()
		var tick time.Duration
		o.Perf = perf.New(func() time.Duration { tick += time.Microsecond; return tick })
		observers[i] = o
		return o
	})

	// Every invocation's completion is retired once: one PhaseDispatch
	// span and one "finish/c" trace event each.
	for i, o := range observers {
		finishes := 0
		for _, ev := range o.Trace.Events() {
			if ev.Kind == obs.KindEventFired && strings.HasPrefix(ev.Detail, "finish/c") {
				finishes++
			}
		}
		n := int64(len(runs[i].w.Invocations))
		if got := o.Perf.Phase(perf.PhaseDispatch).Count(); got != n || int64(finishes) != n {
			t.Errorf("run %d: %d dispatch spans, %d finish events, want %d each", i, got, finishes, n)
		}
	}

	if len(plain) != len(observed) {
		t.Fatalf("result lengths %d/%d", len(plain), len(observed))
	}
	for i := range plain {
		a, b := runner.Fingerprint(plain[i]), runner.Fingerprint(observed[i])
		if a != b {
			t.Errorf("run %d (%s): observed run fingerprint differs from bare run:\nbare:     %.200s\nobserved: %.200s",
				i, runs[i].name, a, b)
		}
	}
}
