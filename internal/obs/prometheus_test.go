package obs

import (
	"io"
	"strings"
	"testing"
	"time"

	"mlcr/internal/obs/perf"
)

// TestPrometheusGolden pins the exposition output of a small export
// byte-for-byte: family ordering, HELP/TYPE lines, label handling and
// summary expansion (quantiles, _sum, _count; plain and labelled) are
// all load-bearing for scrapers. The series are given out of order;
// the writer sorts them.
func TestPrometheusGolden(t *testing.T) {
	var latency, phase perf.HDR
	for _, d := range []time.Duration{5 * time.Millisecond, 50 * time.Millisecond, 250 * time.Millisecond} {
		latency.RecordDuration(d)
	}
	for _, d := range []time.Duration{700 * time.Nanosecond, 3 * time.Microsecond, 40 * time.Microsecond} {
		phase.RecordDuration(d)
	}
	ms := []Metric{
		{Name: `test_warm_total{level="2"}`, Help: "Warm starts.", Type: TypeCounter, Value: 1},
		{Name: "test_requests_total", Help: "Requests served.", Type: TypeCounter, Value: 3},
		{Name: `test_phase_seconds{phase="route"}`, Help: "Phase latency.", Type: TypeSummary, HDR: &phase},
		{Name: `test_warm_total{level="1"}`, Help: "Warm starts.", Type: TypeCounter, Value: 2},
		{Name: "test_pool_mb", Help: "Pool memory.", Type: TypeGauge, Value: 512.5},
		{Name: "test_latency_seconds", Help: "Latency.", Type: TypeSummary, HDR: &latency},
	}

	const want = `# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds summary
test_latency_seconds{quantile="0.5"} 0.050331647
test_latency_seconds{quantile="0.9"} 0.25
test_latency_seconds{quantile="0.99"} 0.25
test_latency_seconds{quantile="0.999"} 0.25
test_latency_seconds_sum 0.305
test_latency_seconds_count 3
# HELP test_phase_seconds Phase latency.
# TYPE test_phase_seconds summary
test_phase_seconds{phase="route",quantile="0.5"} 3.007e-06
test_phase_seconds{phase="route",quantile="0.9"} 4e-05
test_phase_seconds{phase="route",quantile="0.99"} 4e-05
test_phase_seconds{phase="route",quantile="0.999"} 4e-05
test_phase_seconds_sum{phase="route"} 4.37e-05
test_phase_seconds_count{phase="route"} 3
# HELP test_pool_mb Pool memory.
# TYPE test_pool_mb gauge
test_pool_mb 512.5
# HELP test_requests_total Requests served.
# TYPE test_requests_total counter
test_requests_total 3
# HELP test_warm_total Warm starts.
# TYPE test_warm_total counter
test_warm_total{level="1"} 2
test_warm_total{level="2"} 1
`
	var b strings.Builder
	if err := WritePrometheus(&b, ms); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != want {
		t.Errorf("export mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPrometheusTypeConflictPanics: one base name cannot be both a
// counter and a gauge, and one series cannot be given twice.
func TestPrometheusTypeConflictPanics(t *testing.T) {
	for name, ms := range map[string][]Metric{
		"type conflict": {
			{Name: "dual_total", Help: "C.", Type: TypeCounter},
			{Name: `dual_total{x="1"}`, Help: "G.", Type: TypeGauge},
		},
		"duplicate": {
			{Name: "twice_total", Help: "C.", Type: TypeCounter, Value: 1},
			{Name: "twice_total", Help: "C.", Type: TypeCounter, Value: 2},
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected a panic", name)
				}
			}()
			_ = WritePrometheus(io.Discard, ms)
		}()
	}
}

// TestInvalidMetricNamePanics: malformed names are programmer errors.
func TestInvalidMetricNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid metric name")
		}
	}()
	_ = WritePrometheus(io.Discard, []Metric{{Name: "bad name!", Help: "X.", Type: TypeCounter}})
}
