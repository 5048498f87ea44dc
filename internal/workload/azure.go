package workload

import (
	"math"
	"math/rand"
	"slices"
	"time"
)

// AzureMix synthesizes an invocation mix with the aggregate statistics
// the paper cites from the Azure production trace (Shahrad et al.,
// USENIX ATC'20): invocation counts per function are heavily skewed —
// around 19% of functions are invoked exactly once and over 40% no more
// than twice within a day — while a small head of functions produces
// most of the traffic.
//
// The generator draws per-function invocation counts from a discrete
// power law calibrated to those two quantiles, then spreads each
// function's invocations over the window as a Poisson process.
type AzureMix struct {
	// Window is the trace span (the statistics above are per day).
	Window time.Duration
	// Alpha is the power-law exponent for invocation counts; the
	// default 2.05 lands near the cited quantiles.
	Alpha float64
	// MaxPerFunction caps a single function's invocations
	// (default 500).
	MaxPerFunction int
	Rng            *rand.Rand
}

// Counts draws invocation counts for n functions: a calibrated mixture
// with point masses at 1 (19% of functions) and 2 (26%, so 45% are
// invoked at most twice) and a discrete power-law tail above 2 for the
// remaining functions. A single power law cannot hit both cited
// quantiles simultaneously, hence the mixture.
func (a AzureMix) Counts(n int) []int {
	alpha := a.Alpha
	if alpha == 0 {
		alpha = 2.05
	}
	max := a.MaxPerFunction
	if max == 0 {
		max = 500
	}
	out := make([]int, n)
	for i := range out {
		switch u := a.Rng.Float64(); {
		case u < 0.19:
			out[i] = 1
		case u < 0.45:
			out[i] = 2
		default:
			// Power-law tail: P(X >= k) ∝ k^(1-α), shifted above 2.
			k := 2 + int(math.Pow(a.Rng.Float64(), -1/(alpha-1)))
			if k > max {
				k = max
			}
			out[i] = k
		}
	}
	return out
}

// Build composes a workload: each of the given functions receives a
// power-law invocation count and Poisson arrivals within the window.
// jitter is the per-invocation execution-time jitter fraction.
func (a AzureMix) Build(name string, fns []*Function, jitter float64) Workload {
	counts := a.Counts(len(fns))
	window := a.Window
	if window == 0 {
		window = 24 * time.Hour
	}
	streams := make([]Stream, len(fns))
	for i, f := range fns {
		times := make([]time.Duration, counts[i])
		for j := range times {
			times[j] = time.Duration(a.Rng.Float64() * float64(window))
		}
		slices.Sort(times)
		streams[i] = Stream{Fn: f, Times: times}
	}
	return Merge(name, streams, jitter, a.Rng)
}

// MixStats summarizes an invocation-count distribution with the two
// statistics the paper quotes.
type MixStats struct {
	// OnceFrac is the fraction of functions invoked exactly once.
	OnceFrac float64
	// AtMostTwiceFrac is the fraction invoked no more than twice.
	AtMostTwiceFrac float64
	// Total is the total invocation count.
	Total int
}

// StatsOf computes MixStats for per-function invocation counts.
func StatsOf(counts []int) MixStats {
	if len(counts) == 0 {
		return MixStats{}
	}
	var once, twice, total int
	for _, c := range counts {
		total += c
		if c == 1 {
			once++
		}
		if c <= 2 {
			twice++
		}
	}
	return MixStats{
		OnceFrac:        float64(once) / float64(len(counts)),
		AtMostTwiceFrac: float64(twice) / float64(len(counts)),
		Total:           total,
	}
}
