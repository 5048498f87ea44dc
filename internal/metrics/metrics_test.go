package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestCollectorBasics(t *testing.T) {
	var c Collector
	c.Record(Sample{Seq: 0, Startup: time.Second, Cold: true, Level: 0})
	c.Record(Sample{Seq: 1, Startup: 2 * time.Second, Cold: false, Level: 2})
	c.Record(Sample{Seq: 2, Startup: 3 * time.Second, Cold: false, Level: 3})
	if c.Count() != 3 {
		t.Fatalf("Count = %d", c.Count())
	}
	if c.TotalStartup() != 6*time.Second {
		t.Fatalf("Total = %v", c.TotalStartup())
	}
	if c.AvgStartup() != 2*time.Second {
		t.Fatalf("Avg = %v", c.AvgStartup())
	}
	if c.ColdStarts() != 1 || c.WarmStarts() != 2 {
		t.Fatalf("cold/warm = %d/%d", c.ColdStarts(), c.WarmStarts())
	}
	lv := c.ByLevel()
	if lv[0] != 1 || lv[2] != 1 || lv[3] != 1 {
		t.Fatalf("ByLevel = %v", lv)
	}
}

func TestCollectorEmpty(t *testing.T) {
	var c Collector
	if c.AvgStartup() != 0 || c.TotalStartup() != 0 || c.Count() != 0 {
		t.Fatal("empty collector not zero")
	}
}

func TestCumulative(t *testing.T) {
	var c Collector
	c.Record(Sample{Startup: time.Second, Cold: true})
	c.Record(Sample{Startup: 2 * time.Second})
	c.Record(Sample{Startup: time.Second, Cold: true})
	lat, colds := c.Cumulative()
	wantLat := []time.Duration{time.Second, 3 * time.Second, 4 * time.Second}
	wantCold := []int{1, 1, 2}
	for i := range wantLat {
		if lat[i] != wantLat[i] || colds[i] != wantCold[i] {
			t.Fatalf("cumulative[%d] = (%v,%d), want (%v,%d)", i, lat[i], colds[i], wantLat[i], wantCold[i])
		}
	}
}

func TestBoxOf(t *testing.T) {
	b := BoxOf([]float64{1, 2, 3, 4, 5})
	if b.Min != 1 || b.Max != 5 || b.Median != 3 || b.Q1 != 2 || b.Q3 != 4 || b.Mean != 3 || b.N != 5 {
		t.Fatalf("Box = %+v", b)
	}
	if got := BoxOf(nil); got.N != 0 {
		t.Fatalf("BoxOf(nil) = %+v", got)
	}
	one := BoxOf([]float64{7})
	if one.Min != 7 || one.Max != 7 || one.Median != 7 {
		t.Fatalf("BoxOf singleton = %+v", one)
	}
}

func TestBoxInterpolation(t *testing.T) {
	b := BoxOf([]float64{1, 2, 3, 4})
	// type-7 quantiles: Q1 = 1.75, median = 2.5, Q3 = 3.25
	if math.Abs(b.Q1-1.75) > 1e-12 || math.Abs(b.Median-2.5) > 1e-12 || math.Abs(b.Q3-3.25) > 1e-12 {
		t.Fatalf("Box = %+v", b)
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if got := Percentile(v, 50); math.Abs(got-55) > 1e-12 {
		t.Fatalf("P50 = %v, want 55", got)
	}
	if got := Percentile(v, 0); got != 10 {
		t.Fatalf("P0 = %v", got)
	}
	if got := Percentile(v, 100); got != 100 {
		t.Fatalf("P100 = %v", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("P50 of empty = %v", got)
	}
}

func TestPercentilePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("percentile 101 did not panic")
		}
	}()
	Percentile([]float64{1}, 101)
}

func TestMeanStddev(t *testing.T) {
	if Mean([]float64{2, 4, 6}) != 4 {
		t.Fatal("Mean wrong")
	}
	if Mean(nil) != 0 || Stddev(nil) != 0 {
		t.Fatal("empty stats not zero")
	}
	if got := Stddev([]float64{2, 4, 6}); math.Abs(got-math.Sqrt(8.0/3)) > 1e-12 {
		t.Fatalf("Stddev = %v", got)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Observe(time.Second, 5)
	s.Observe(2*time.Second, 9)
	s.Observe(3*time.Second, 3)
	if len(s.T) != 3 || s.T[2] != 3*time.Second || s.V[1] != 9 {
		t.Fatalf("series = %+v", s)
	}
	s.SetRetainPoints(false)
	s.Observe(4*time.Second, 1)
	if len(s.T) != 3 || len(s.V) != 3 {
		t.Fatalf("retention off still grew the series: %+v", s)
	}
}

func TestReduction(t *testing.T) {
	if got := Reduction(10*time.Second, 5*time.Second); got != 0.5 {
		t.Fatalf("Reduction = %v, want 0.5", got)
	}
	if got := Reduction(0, time.Second); got != 0 {
		t.Fatalf("Reduction with zero base = %v", got)
	}
}

// Property: box statistics are ordered min <= q1 <= median <= q3 <= max
// and bounded by the data.
func TestPropertyBoxOrdering(t *testing.T) {
	f := func(raw []float64) bool {
		var vals []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		b := BoxOf(vals)
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		return b.Min == sorted[0] && b.Max == sorted[len(sorted)-1] &&
			b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCollectorStartupQuantile: the streaming HDR quantile tracks the
// exact sorted-sample percentile within the bucket bound, and never
// underestimates it.
func TestCollectorStartupQuantile(t *testing.T) {
	var c Collector
	var lat []float64
	for i := 0; i < 4000; i++ {
		d := time.Duration((i*2654435761)%50_000_000) * time.Nanosecond
		c.Record(Sample{Seq: i, Startup: d})
		lat = append(lat, d.Seconds())
	}
	for _, p := range []float64{50, 90, 99} {
		exact := Percentile(lat, p)
		got := c.StartupQuantile(p / 100).Seconds()
		if got < exact*(1-1e-9) {
			t.Errorf("StartupQuantile(%v) = %v underestimates exact %v", p, got, exact)
		}
		if got > exact*1.04+1e-9 {
			t.Errorf("StartupQuantile(%v) = %v exceeds exact %v by more than the bucket bound", p, got, exact)
		}
	}
	// The histogram is built from the retained samples on the first
	// read above and must keep up with every Record after it.
	c.Record(Sample{Seq: 4000, Startup: time.Hour})
	if got := c.StartupQuantile(1); got < time.Hour {
		t.Fatalf("max %v misses the sample recorded after the first read", got)
	}
}

// TestCollectorRetentionToggle: with retention off, aggregates and
// quantiles keep covering every Record while the sample slice stays
// fixed — the bounded-memory mode behind the live /stats endpoint.
func TestCollectorRetentionToggle(t *testing.T) {
	var c Collector
	c.Record(Sample{Seq: 0, Startup: time.Second, Cold: true})
	c.SetRetainSamples(false)
	for i := 1; i < 100; i++ {
		c.Record(Sample{Seq: i, Startup: time.Millisecond})
	}
	if len(c.Samples()) != 1 {
		t.Fatalf("retained %d samples, want 1 (recorded before toggle)", len(c.Samples()))
	}
	if c.Count() != 100 || c.ColdStarts() != 1 || c.WarmStarts() != 99 {
		t.Fatalf("aggregates broken: count=%d cold=%d warm=%d", c.Count(), c.ColdStarts(), c.WarmStarts())
	}
	if got := c.StartupQuantile(0.5); got < time.Millisecond || got > 2*time.Millisecond {
		t.Fatalf("median %v, want ~1ms", got)
	}
	if got := c.StartupQuantile(1); got < time.Second {
		t.Fatalf("max %v misses the sample retained before the toggle", got)
	}
	c.Reserve(1 << 20) // must not allocate in no-retain mode
	if cap(c.Samples()) >= 1<<20 {
		t.Fatal("Reserve allocated despite retention off")
	}
	c.SetRetainSamples(true)
	c.Record(Sample{Seq: 100, Startup: time.Millisecond})
	if len(c.Samples()) != 2 {
		t.Fatalf("retained %d samples after re-enable, want 2", len(c.Samples()))
	}
}

// TestCollectorQuantileEmpty: quantiles on an untouched collector are 0.
func TestCollectorQuantileEmpty(t *testing.T) {
	var c Collector
	if c.StartupQuantile(0.99) != 0 {
		t.Fatal("empty collector must report zero quantiles")
	}
}
