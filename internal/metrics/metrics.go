// Package metrics collects and summarizes simulation results: startup
// latency distributions, cold-start counts, per-level reuse counts and
// time series, in the forms the paper's figures report (totals, averages,
// box-plot statistics and cumulative curves).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"

	"mlcr/internal/obs/perf"
)

// Sample is one recorded invocation outcome.
type Sample struct {
	Seq     int
	FnID    int
	Arrival time.Duration
	Startup time.Duration
	Cold    bool
	// Level is the match level of a warm start (1..3); 0 for cold.
	Level int
}

// Collector accumulates invocation outcomes during a run. Aggregates —
// count, totals, level counts and the startup-latency HDR behind
// StartupQuantile — are always O(1) memory; the per-sample slice is
// retained by default (batch analysis and the determinism fingerprint
// need it) but can be switched off with SetRetainSamples for unbounded
// live traffic, where only the fixed-footprint state keeps growing
// costs at zero.
type Collector struct {
	samples []Sample
	total   time.Duration
	count   int
	cold    int
	byLevel [4]int
	// startup holds the startup-latency distribution in nanoseconds,
	// ~15 KiB once live. While it is nil every recorded sample is in
	// samples: a retaining Collector builds it on the first quantile
	// read (see hdr), so runs nobody asks a quantile of — a cluster's
	// thousand workers, ~100 samples each — never pay for it.
	startup *perf.HDR
	// noRetain inverts "retain samples" so the zero Collector keeps
	// its historical retaining behavior.
	noRetain bool
}

// Record adds one invocation outcome.
func (c *Collector) Record(s Sample) {
	if c.noRetain {
		c.hdr().RecordDuration(s.Startup)
	} else {
		c.samples = append(c.samples, s)
		if c.startup != nil {
			c.startup.RecordDuration(s.Startup)
		}
	}
	c.count++
	c.total += s.Startup
	if s.Cold {
		c.cold++
	}
	if s.Level >= 0 && s.Level < len(c.byLevel) {
		c.byLevel[s.Level]++
	}
}

// SetRetainSamples controls whether Record keeps the full per-sample
// slice. Retention is on by default; the HTTP gateway turns it off so
// a long-lived serving process stays bounded no matter how many
// invocations it absorbs. With retention off, Samples and Cumulative
// see only samples recorded while retention was on, while
// Count and the quantile/aggregate accessors keep covering everything.
func (c *Collector) SetRetainSamples(retain bool) { c.noRetain = !retain }

// Reserve grows the sample buffer to hold at least n samples. Callers
// that know the run length up front (the platform does: one sample per
// invocation) avoid the repeated doubling copies that dominate
// million-invocation runs. A no-op when sample retention is off.
func (c *Collector) Reserve(n int) {
	if c.noRetain || cap(c.samples)-len(c.samples) >= n {
		return
	}
	grown := make([]Sample, len(c.samples), len(c.samples)+n)
	copy(grown, c.samples)
	c.samples = grown
}

// Count returns the number of recorded invocations.
func (c *Collector) Count() int { return c.count }

// StartupQuantile returns the q-quantile (q in [0,1]) of the startup
// latency distribution from the collector's streaming HDR histogram:
// O(1) memory at any run length, ≤3.1% relative error (see
// internal/obs/perf). Returns 0 before any Record.
func (c *Collector) StartupQuantile(q float64) time.Duration {
	if c.count == 0 {
		return 0
	}
	return time.Duration(c.hdr().Quantile(q))
}

// hdr returns the startup histogram, first building it from the
// retained samples if it does not exist yet.
func (c *Collector) hdr() *perf.HDR {
	if c.startup == nil {
		c.startup = &perf.HDR{}
		for i := range c.samples {
			c.startup.RecordDuration(c.samples[i].Startup)
		}
	}
	return c.startup
}

// TotalStartup returns the summed startup latency (Fig 8a, Fig 11).
func (c *Collector) TotalStartup() time.Duration { return c.total }

// AvgStartup returns the mean startup latency.
func (c *Collector) AvgStartup() time.Duration {
	if c.count == 0 {
		return 0
	}
	return c.total / time.Duration(c.count)
}

// ColdStarts returns the number of cold starts (Fig 8b).
func (c *Collector) ColdStarts() int { return c.cold }

// WarmStarts returns the number of warm starts.
func (c *Collector) WarmStarts() int { return c.count - c.cold }

// ByLevel returns invocation counts indexed by match level
// (0 = cold, 1..3 = L1..L3 warm starts).
func (c *Collector) ByLevel() [4]int { return c.byLevel }

// Samples returns the recorded samples in arrival order.
func (c *Collector) Samples() []Sample { return c.samples }

// Cumulative returns the running totals after each invocation: cumulative
// startup latency and cumulative cold starts (the two curves of Fig 9).
func (c *Collector) Cumulative() (latency []time.Duration, colds []int) {
	latency = make([]time.Duration, len(c.samples))
	colds = make([]int, len(c.samples))
	var sum time.Duration
	n := 0
	for i, s := range c.samples {
		sum += s.Startup
		if s.Cold {
			n++
		}
		latency[i] = sum
		colds[i] = n
	}
	return latency, colds
}

// Box holds the five-number summary used by the paper's box charts.
type Box struct {
	Min, Q1, Median, Q3, Max float64
	Mean                     float64
	N                        int
}

// BoxOf computes box statistics over values. Quartiles use linear
// interpolation between order statistics (type-7, the numpy default).
func BoxOf(values []float64) Box {
	if len(values) == 0 {
		return Box{}
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	var sum float64
	for _, x := range v {
		sum += x
	}
	return Box{
		Min:    v[0],
		Q1:     quantile(v, 0.25),
		Median: quantile(v, 0.5),
		Q3:     quantile(v, 0.75),
		Max:    v[len(v)-1],
		Mean:   sum / float64(len(v)),
		N:      len(v),
	}
}

// quantile computes the q-th quantile of sorted v by linear interpolation.
func quantile(v []float64, q float64) float64 {
	if len(v) == 1 {
		return v[0]
	}
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return v[lo]
	}
	frac := pos - float64(lo)
	return v[lo]*(1-frac) + v[hi]*frac
}

// Percentile returns the p-th percentile (0..100) of values.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("metrics: percentile %v out of [0,100]", p))
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	return quantile(v, p/100)
}

// Mean returns the arithmetic mean of values (0 for empty input).
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var s float64
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// Stddev returns the population standard deviation of values.
func Stddev(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	m := Mean(values)
	var s float64
	for _, v := range values {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(values)))
}

// Series tracks the time evolution of a scalar (e.g. pool memory),
// sampled at irregular virtual times.
type Series struct {
	T        []time.Duration
	V        []float64
	noPoints bool
}

// Observe appends a sample; a no-op with point retention off.
func (s *Series) Observe(t time.Duration, v float64) {
	if !s.noPoints {
		s.T = append(s.T, t)
		s.V = append(s.V, v)
	}
}

// SetRetainPoints controls whether Observe keeps the (time, value)
// points (the default) or drops them. A serving gateway observes an
// unbounded invocation stream; retaining every point would grow
// without limit, while batch simulations keep them for figures and
// fingerprints.
func (s *Series) SetRetainPoints(retain bool) { s.noPoints = !retain }

// Reserve grows the point buffers to hold at least n more
// observations, saving the doubling copies on trace-scale runs where
// the caller can bound the observation count up front.
func (s *Series) Reserve(n int) {
	if cap(s.T)-len(s.T) >= n {
		return
	}
	t := make([]time.Duration, len(s.T), len(s.T)+n)
	copy(t, s.T)
	s.T = t
	v := make([]float64, len(s.V), len(s.V)+n)
	copy(v, s.V)
	s.V = v
}

// Reduction returns the fractional reduction of got versus base:
// (base-got)/base. It returns 0 when base is 0.
func Reduction(base, got time.Duration) float64 {
	if base == 0 {
		return 0
	}
	return float64(base-got) / float64(base)
}
