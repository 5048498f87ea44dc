package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Histogram accumulates duration samples into logarithmic buckets for
// latency-distribution reporting (the CDF view of startup latencies).
type Histogram struct {
	// boundaries[i] is the inclusive upper edge of bucket i; the last
	// bucket is unbounded.
	boundaries []time.Duration
	counts     []int
	total      int
	sum        time.Duration
	max        time.Duration
}

// NewLatencyHistogram returns a histogram with log-spaced boundaries
// from 1ms to ~5 minutes — a spread matching serverless startup times.
func NewLatencyHistogram() *Histogram {
	var bounds []time.Duration
	for ms := 1.0; ms <= 300_000; ms *= 2 {
		bounds = append(bounds, time.Duration(ms*float64(time.Millisecond)))
	}
	return NewHistogram(bounds)
}

// NewHistogram builds a histogram over the given ascending boundaries.
func NewHistogram(boundaries []time.Duration) *Histogram {
	if len(boundaries) == 0 {
		panic("metrics: histogram needs at least one boundary")
	}
	for i := 1; i < len(boundaries); i++ {
		if boundaries[i] <= boundaries[i-1] {
			panic(fmt.Sprintf("metrics: histogram boundaries not ascending at %d", i))
		}
	}
	return &Histogram{
		boundaries: append([]time.Duration(nil), boundaries...),
		counts:     make([]int, len(boundaries)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	idx := sort.Search(len(h.boundaries), func(i int) bool { return d <= h.boundaries[i] })
	h.counts[idx]++
	h.total++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return h.total }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() time.Duration { return h.sum }

// Boundaries returns a copy of the bucket upper edges (the last bucket,
// above the final edge, is unbounded).
func (h *Histogram) Boundaries() []time.Duration {
	return append([]time.Duration(nil), h.boundaries...)
}

// Counts returns a copy of the per-bucket sample counts; its length is
// len(Boundaries())+1, the final entry being the unbounded bucket.
func (h *Histogram) Counts() []int { return append([]int(nil), h.counts...) }

// Quantile returns an upper bound for the q-th quantile (0..1) from the
// bucket boundaries — exact to bucket resolution.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: quantile %v out of [0,1]", q))
	}
	target := int(math.Ceil(q * float64(h.total)))
	if target < 1 {
		target = 1
	}
	cum := 0
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			if i < len(h.boundaries) {
				return h.boundaries[i]
			}
			return h.max
		}
	}
	return h.max
}

// String renders a compact ASCII distribution (non-empty buckets only).
func (h *Histogram) String() string {
	var b strings.Builder
	maxCount := 0
	for _, c := range h.counts {
		if c > maxCount {
			maxCount = c
		}
	}
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		label := "+Inf"
		if i < len(h.boundaries) {
			label = h.boundaries[i].String()
		}
		bar := strings.Repeat("#", int(float64(c)/float64(maxCount)*30))
		fmt.Fprintf(&b, "%10s %6d %s\n", "≤"+label, c, bar)
	}
	return b.String()
}
