// Package perf is the performance-measurement leaf of the
// observability layer: a fixed-footprint HDR histogram for latency
// distributions and a nil-safe phase profiler with an injected clock.
// It imports only the standard library so
// every layer of the simulator — metrics, pool, scheduler, platform,
// cluster — can depend on it without cycles.
//
// Everything here is deterministic given its inputs: the histogram is
// pure arithmetic over recorded values, and the profiler never reads a
// wall clock itself — callers inject one (virtual, monotonic-counter,
// or wall time where the walltime analyzer permits it).
package perf

import (
	"math"
	"math/bits"
	"time"
)

// Log-linear bucketing: values below subCount are exact; above that,
// each power-of-two range [2^k, 2^{k+1}) is split into subCount linear
// sub-buckets, so a bucket's width never exceeds 1/subCount of its
// lower edge and any reported quantile overestimates a recorded value
// by at most a factor of 1+1/subCount (≈3.1%).
const (
	subBits  = 5
	subCount = 1 << subBits // 32 sub-buckets per power of two

	// bucketCount covers every non-negative int64: subCount exact
	// buckets plus subCount per power-of-two range 2^subBits..2^63.
	bucketCount = (64 - subBits) * subCount
)

// HDR is a streaming histogram over non-negative int64 values
// (conventionally nanoseconds) with a fixed ~15 KiB footprint.
// Record is allocation-free; Merge is bucket-wise addition, so
// merge(a,b) is bit-identical to recording the union of a's and b's
// inputs into one histogram. Not safe for concurrent use.
//
// The zero value is an empty histogram ready to record.
type HDR struct {
	counts [bucketCount]uint64
	count  int64
	sum    int64
	min    int64
	max    int64
}

// bucketIndex maps a value to its bucket. Negative values clamp to 0.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < subCount {
		return int(u)
	}
	n := bits.Len64(u) // ≥ subBits+1
	// Shift so the top subBits+1 bits remain: u>>s ∈ [subCount, 2·subCount).
	s := uint(n - subBits - 1)
	return (n-subBits)*subCount + int(u>>s) - subCount
}

// bucketHigh is the largest value mapping to bucket idx — the value
// Quantile reports for it.
func bucketHigh(idx int) int64 {
	if idx < subCount {
		return int64(idx)
	}
	n := idx/subCount + subBits
	s := uint(n - subBits - 1)
	off := idx % subCount
	return int64(uint64(subCount+off+1)<<s - 1)
}

// Record adds one value. Negative values are clamped to zero (phase
// timers can observe zero-width spans under coarse clocks, never
// negative ones — but clamping keeps the histogram total-ordered under
// any input).
func (h *HDR) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// RecordN adds n occurrences of the same value in O(1) — equivalent to
// calling Record(v) n times. Callers that count repeats of one known
// value with an atomic counter (the gateway's lock-free L3 fast path)
// use it to fold the count into a histogram at scrape time.
func (h *HDR) RecordN(v int64, n uint64) {
	if n == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)] += n
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count += int64(n)
	h.sum += v * int64(n)
}

// RecordDuration records a duration in nanoseconds.
func (h *HDR) RecordDuration(d time.Duration) { h.Record(int64(d)) }

// Count is the number of recorded values.
func (h *HDR) Count() int64 { return h.count }

// Sum is the exact sum of recorded values (not bucket-quantized).
func (h *HDR) Sum() int64 { return h.sum }

// Min is the exact smallest recorded value, 0 when empty.
func (h *HDR) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max is the exact largest recorded value, 0 when empty.
func (h *HDR) Max() int64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Mean is Sum/Count, 0 when empty.
func (h *HDR) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns the q-quantile (q in [0,1]) as the upper edge of the
// bucket holding the ⌈q·Count⌉-th smallest value, clamped to [Min,Max]
// so exact observed extremes are reported exactly. It is monotone
// non-decreasing in q and overestimates the true order statistic by at
// most a factor of 1+2^-5. Returns 0 when empty.
func (h *HDR) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if math.IsNaN(q) || q <= 0 {
		return h.min
	}
	target := int64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		target = 1
	}
	if target > h.count {
		target = h.count
	}
	var seen int64
	for i := 0; i < bucketCount; i++ {
		c := h.counts[i]
		if c == 0 {
			continue
		}
		seen += int64(c)
		if seen >= target {
			v := bucketHigh(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max // unreachable when counts are consistent
}

// Merge adds other's recorded population into h. Merging histograms is
// bit-identical to recording both input streams into one histogram.
func (h *HDR) Merge(other *HDR) {
	if other == nil || other.count == 0 {
		return
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.count == 0 || other.max > h.max {
		h.max = other.max
	}
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	h.count += other.count
	h.sum += other.sum
}

// Reset returns the histogram to its empty state without releasing its
// storage.
func (h *HDR) Reset() { *h = HDR{} }

// Snapshot returns an independent copy, safe to hand across goroutine
// boundaries once the source stops recording.
func (h *HDR) Snapshot() *HDR {
	cp := *h
	return &cp
}

// Buckets calls fn for every non-empty bucket in ascending value order
// with the bucket's inclusive upper edge and its count. Exporters use
// it to emit cumulative bucket series without copying the array.
func (h *HDR) Buckets(fn func(high int64, count uint64)) {
	for i := 0; i < bucketCount; i++ {
		if c := h.counts[i]; c != 0 {
			fn(bucketHigh(i), c)
		}
	}
}
