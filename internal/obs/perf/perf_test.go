package perf

import (
	"testing"
	"time"
)

// counterClock is the deterministic test clock: each read advances by
// step, so span k measures exactly step nanoseconds.
func counterClock(step time.Duration) Clock {
	var t time.Duration
	return func() time.Duration {
		t += step
		return t
	}
}

func TestProfilerRecordsSpans(t *testing.T) {
	p := New(counterClock(10))
	for i := 0; i < 100; i++ {
		sp := p.Start(PhaseSchedule)
		sp.End()
	}
	h := p.Phase(PhaseSchedule)
	if h.Count() != 100 {
		t.Fatalf("count %d, want 100", h.Count())
	}
	if h.Min() != 10 || h.Max() != 10 {
		t.Fatalf("span width %d..%d, want exactly 10", h.Min(), h.Max())
	}
	if p.Phase(PhaseDispatch).Count() != 0 {
		t.Fatal("untouched phase recorded spans")
	}
}

func TestNilProfilerIsInert(t *testing.T) {
	var p *Profiler
	sp := p.Start(PhaseNNForward) // must not panic or read any clock
	sp.End()
	if p.Phase(PhaseNNForward) != nil {
		t.Fatal("nil profiler returned a histogram")
	}
	p.Reset() // no-op, must not panic
}

func TestNewPanicsOnNilClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(nil) did not panic")
		}
	}()
	New(nil)
}

func TestPhaseNames(t *testing.T) {
	seen := map[string]bool{}
	for ph := Phase(0); ph < NumPhases; ph++ {
		n := ph.String()
		if n == "" || n == "unknown" || seen[n] {
			t.Fatalf("phase %d has bad or duplicate name %q", ph, n)
		}
		seen[n] = true
	}
	if NumPhases.String() != "unknown" {
		t.Fatal("out-of-range phase must stringify as unknown")
	}
}

// TestDisabledSpanZeroAllocs is the satellite contract: a disabled
// profiler scope is 0 allocs/op.
func TestDisabledSpanZeroAllocs(t *testing.T) {
	var p *Profiler
	allocs := testing.AllocsPerRun(1000, func() {
		sp := p.Start(PhaseSchedule)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled span allocates %v allocs/op, want 0", allocs)
	}
}

// TestEnabledSpanZeroAllocs: even enabled scopes never allocate — the
// Span is a value and the HDR storage is preallocated.
func TestEnabledSpanZeroAllocs(t *testing.T) {
	p := New(counterClock(1))
	allocs := testing.AllocsPerRun(1000, func() {
		sp := p.Start(PhaseSchedule)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("enabled span allocates %v allocs/op, want 0", allocs)
	}
}

// BenchmarkDisabledSpan measures the cost of an instrumented scope
// with profiling off (nil profiler): two nil checks, 0 allocs/op —
// cheap enough to leave in every hot path unconditionally.
func BenchmarkDisabledSpan(b *testing.B) {
	var p *Profiler
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := p.Start(PhaseSchedule)
		sp.End()
	}
}

// BenchmarkEnabledSpan measures a live scope with a trivial clock:
// two clock reads plus one HDR record.
func BenchmarkEnabledSpan(b *testing.B) {
	p := New(counterClock(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := p.Start(PhaseSchedule)
		sp.End()
	}
}
