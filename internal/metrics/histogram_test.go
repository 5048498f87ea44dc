package metrics

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram([]time.Duration{10 * time.Millisecond, 100 * time.Millisecond, time.Second})
	for _, d := range []time.Duration{5 * time.Millisecond, 50 * time.Millisecond, 500 * time.Millisecond, 5 * time.Second} {
		h.Observe(d)
	}
	if h.Count() != 4 {
		t.Fatalf("Count = %d", h.Count())
	}
	if want := 5*time.Millisecond + 50*time.Millisecond + 500*time.Millisecond + 5*time.Second; h.Sum() != want {
		t.Fatalf("Sum = %v, want %v", h.Sum(), want)
	}
	if got := h.Quantile(1); got != 5*time.Second {
		t.Fatalf("P100 = %v, want the observed max", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]time.Duration{10 * time.Millisecond, 100 * time.Millisecond, time.Second})
	for i := 0; i < 99; i++ {
		h.Observe(time.Millisecond) // bucket 0
	}
	h.Observe(10 * time.Second) // overflow bucket
	if got := h.Quantile(0.5); got != 10*time.Millisecond {
		t.Fatalf("P50 = %v, want 10ms (bucket bound)", got)
	}
	if got := h.Quantile(1); got != 10*time.Second {
		t.Fatalf("P100 = %v, want max", got)
	}
	if got := h.Quantile(0.99); got != 10*time.Millisecond {
		t.Fatalf("P99 = %v", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewLatencyHistogram()
	if h.Quantile(0.5) != 0 || h.Sum() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram not zero")
	}
}

func TestHistogramPanics(t *testing.T) {
	cases := []func(){
		func() { NewHistogram(nil) },
		func() { NewHistogram([]time.Duration{2, 1}) },
		func() {
			h := NewLatencyHistogram()
			h.Observe(time.Second)
			h.Quantile(1.5)
		},
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestHistogramString(t *testing.T) {
	h := NewLatencyHistogram()
	h.Observe(3 * time.Millisecond)
	h.Observe(3 * time.Millisecond)
	h.Observe(40 * time.Second)
	out := h.String()
	if !strings.Contains(out, "#") || !strings.Contains(out, "2") {
		t.Fatalf("render:\n%s", out)
	}
}

// Property: bucket counts always sum to Count, and quantiles are
// monotone in q.
func TestPropertyHistogram(t *testing.T) {
	f := func(samples []uint32) bool {
		h := NewLatencyHistogram()
		for _, s := range samples {
			h.Observe(time.Duration(s%300_000_000) * time.Microsecond)
		}
		sum := 0
		for _, c := range h.counts {
			sum += c
		}
		if sum != h.Count() {
			return false
		}
		if h.Count() == 0 {
			return true
		}
		prev := time.Duration(0)
		for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
