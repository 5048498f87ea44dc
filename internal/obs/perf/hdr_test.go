package perf

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sampleStreams are value distributions exercising exact buckets,
// log-linear buckets, and extremes.
func sampleStreams(rng *rand.Rand) map[string][]int64 {
	uniform := make([]int64, 5000)
	for i := range uniform {
		uniform[i] = rng.Int63n(5_000_000)
	}
	logNormalish := make([]int64, 5000)
	for i := range logNormalish {
		logNormalish[i] = int64(math.Exp(rng.NormFloat64()*2 + 8))
	}
	small := make([]int64, 300)
	for i := range small {
		small[i] = rng.Int63n(32) // exact-bucket region
	}
	return map[string][]int64{
		"uniform":  uniform,
		"lognorm":  logNormalish,
		"small":    small,
		"single":   {12345},
		"constant": {777, 777, 777, 777},
		"extremes": {0, 1, math.MaxInt64, math.MaxInt64 / 3, 31, 32, 33},
	}
}

func recordAll(vals []int64) *HDR {
	h := &HDR{}
	for _, v := range vals {
		h.Record(v)
	}
	return h
}

// TestHDRBucketCountsSumToCount is the conservation property: every
// recorded value lands in exactly one bucket.
func TestHDRBucketCountsSumToCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, vals := range sampleStreams(rng) {
		h := recordAll(vals)
		var sum uint64
		h.Buckets(func(_ int64, c uint64) { sum += c })
		if int64(sum) != h.Count() || h.Count() != int64(len(vals)) {
			t.Errorf("%s: bucket sum %d, Count %d, recorded %d", name, sum, h.Count(), len(vals))
		}
	}
}

// TestHDRQuantileMonotone checks Quantile is non-decreasing in q and
// stays within [Min, Max].
func TestHDRQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for name, vals := range sampleStreams(rng) {
		h := recordAll(vals)
		prev := int64(math.MinInt64)
		for q := 0.0; q <= 1.0; q += 0.001 {
			v := h.Quantile(q)
			if v < prev {
				t.Fatalf("%s: Quantile(%v)=%d < previous %d", name, q, v, prev)
			}
			if v < h.Min() || v > h.Max() {
				t.Fatalf("%s: Quantile(%v)=%d outside [%d,%d]", name, q, v, h.Min(), h.Max())
			}
			prev = v
		}
	}
}

// TestHDRQuantileRelativeError checks each quantile against the exact
// order statistic: the HDR answer may overestimate by at most the
// bucket bound 1/subCount and never underestimates.
func TestHDRQuantileRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, vals := range sampleStreams(rng) {
		h := recordAll(vals)
		sorted := append([]int64(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			rank := int(math.Ceil(q * float64(len(sorted))))
			if rank < 1 {
				rank = 1
			}
			exact := sorted[rank-1]
			got := h.Quantile(q)
			if got < exact {
				t.Errorf("%s: Quantile(%v)=%d underestimates exact %d", name, q, got, exact)
			}
			// Allowed overshoot: one bucket width, i.e. exact/subCount
			// (clamping to Max can only tighten it). Compare in float to
			// dodge int64 overflow near MaxInt64.
			if float64(got) > float64(exact)+float64(exact)/subCount {
				t.Errorf("%s: Quantile(%v)=%d > relative-error bound for exact %d", name, q, got, exact)
			}
		}
	}
}

// TestHDRMergeEqualsUnion checks merge(a,b) is bit-identical to
// recording the concatenated streams into a single histogram.
func TestHDRMergeEqualsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	streams := sampleStreams(rng)
	a := recordAll(streams["uniform"])
	b := recordAll(streams["lognorm"])
	union := recordAll(append(append([]int64(nil), streams["uniform"]...), streams["lognorm"]...))

	a.Merge(b)
	if *a != *union {
		t.Fatalf("merge(a,b) differs from union histogram: count %d vs %d, sum %d vs %d, min %d vs %d, max %d vs %d",
			a.Count(), union.Count(), a.Sum(), union.Sum(), a.Min(), union.Min(), a.Max(), union.Max())
	}

	// Merging an empty or nil histogram is the identity.
	before := *a
	a.Merge(&HDR{})
	a.Merge(nil)
	if *a != before {
		t.Fatal("merging empty/nil histograms changed the receiver")
	}
}

// TestHDRExactBelowSubCount: values under subCount occupy exact
// buckets, so their quantiles are exact.
func TestHDRExactBelowSubCount(t *testing.T) {
	h := &HDR{}
	for v := int64(0); v < subCount; v++ {
		h.Record(v)
	}
	for v := int64(0); v < subCount; v++ {
		q := (float64(v) + 1) / float64(subCount)
		if got := h.Quantile(q); got != v {
			t.Errorf("Quantile(%v) = %d, want exact %d", q, got, v)
		}
	}
}

// TestHDREmptyAndNegative covers edge inputs.
func TestHDREmptyAndNegative(t *testing.T) {
	h := &HDR{}
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Record(-5) // clamps to 0
	if h.Count() != 1 || h.Min() != 0 || h.Max() != 0 || h.Quantile(1) != 0 {
		t.Fatalf("negative record must clamp to 0: count=%d min=%d max=%d", h.Count(), h.Min(), h.Max())
	}
}

// TestBucketEdgesConsistent: for every bucket, bucketHigh is the
// largest value mapping back to that bucket, and edges are strictly
// increasing.
func TestBucketEdgesConsistent(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < bucketCount; i++ {
		high := bucketHigh(i)
		if high <= prev && high > 0 {
			t.Fatalf("bucket %d: edge %d not increasing past %d", i, high, prev)
		}
		if high >= 0 {
			if got := bucketIndex(high); got != i {
				t.Fatalf("bucket %d: bucketIndex(high=%d) = %d", i, high, got)
			}
			if high+1 > 0 {
				if got := bucketIndex(high + 1); got != i+1 {
					t.Fatalf("bucket %d: bucketIndex(high+1=%d) = %d, want %d", i, high+1, got, i+1)
				}
			}
		}
		prev = high
	}
	if got := bucketIndex(math.MaxInt64); got >= bucketCount {
		t.Fatalf("bucketIndex(MaxInt64) = %d out of range %d", got, bucketCount)
	}
}

// BenchmarkHDRRecord proves Record is allocation-free.
func BenchmarkHDRRecord(b *testing.B) {
	h := &HDR{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i)*977 + 13)
	}
	if h.Count() != int64(b.N) {
		b.Fatal("count mismatch")
	}
}

// TestHDRRecordZeroAllocs enforces the 0 allocs/op contract in the
// regular test run (benchmarks don't run under `go test ./...`).
func TestHDRRecordZeroAllocs(t *testing.T) {
	h := &HDR{}
	allocs := testing.AllocsPerRun(1000, func() {
		h.Record(4242)
	})
	if allocs != 0 {
		t.Fatalf("HDR.Record allocates %v allocs/op, want 0", allocs)
	}
}
