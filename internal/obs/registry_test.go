package obs

import (
	"regexp"
	"strings"
	"testing"
	"time"

	"mlcr/internal/obs/perf"
)

// TestPrometheusGolden pins the exposition output of a small registry
// byte-for-byte: family ordering, HELP/TYPE lines, label handling and
// summary expansion (quantiles, _sum, _count; plain and labelled) are
// all load-bearing for scrapers.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_requests_total", "Requests served.").Add(3)
	r.Counter(`test_warm_total{level="1"}`, "Warm starts.").Add(2)
	r.Counter(`test_warm_total{level="2"}`, "Warm starts.").Inc()
	r.Gauge("test_pool_mb", "Pool memory.").Set(512.5)
	s := r.Summary("test_latency_seconds", "Latency.")
	s.Observe(5 * time.Millisecond)
	s.Observe(50 * time.Millisecond)
	s.Observe(250 * time.Millisecond)
	var h perf.HDR
	for _, d := range []time.Duration{700 * time.Nanosecond, 3 * time.Microsecond, 40 * time.Microsecond} {
		h.RecordDuration(d)
	}
	r.Summary(`test_phase_seconds{phase="route"}`, "Phase latency.").SetHDR(&h)

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
	if got := r.Snapshot(); got != want {
		t.Errorf("snapshot mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// sampleLineRe matches one exposition-format sample line: metric name,
// optional label set, a space, and a number.
var sampleLineRe = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})? ` +
		`[-+]?([0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|Inf|NaN)$`)

// TestPrometheusFormatValid runs a lightweight exposition-format
// validator over the platform-shaped metric set (counters, a gauge, the
// startup summary and one PublishPerf-shaped phase summary): every sample line must
// parse, and every sample must be preceded by its family's TYPE line.
func TestPrometheusFormatValid(t *testing.T) {
	r := NewRegistry()
	r.Counter("mlcr_invocations_total", "Invocations scheduled.").Add(10)
	r.Gauge("mlcr_pool_used_mb", "Idle pool memory.").Set(0)
	r.Summary("mlcr_startup_seconds", "Startup latency.").Observe(3 * time.Second)
	var h perf.HDR
	h.RecordDuration(40 * time.Microsecond)
	r.Summary(`mlcr_phase_seconds{phase="schedule"}`, "Hot-path phase latency by profiler phase.").SetHDR(&h)
	for _, lv := range []string{"1", "2", "3"} {
		r.Counter(`mlcr_warm_starts_total{level="`+lv+`"}`, "Warm starts by level.").Inc()
	}

	typed := map[string]bool{}
	for i, line := range strings.Split(strings.TrimSuffix(r.Snapshot(), "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			switch f[3] {
			case "counter", "gauge", "summary":
			default:
				t.Errorf("line %d: unknown type %q", i+1, f[3])
			}
			typed[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if !sampleLineRe.MatchString(line) {
			t.Errorf("line %d: invalid sample line %q", i+1, line)
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		base := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		if !typed[name] && !typed[base] {
			t.Errorf("line %d: sample %q has no preceding TYPE", i+1, name)
		}
	}
}

// TestRegistryIdempotent verifies repeated registration returns the same
// handle, so eager registration plus hot-path pointer increments works.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "X.")
	b := r.Counter("x_total", "ignored second help")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatalf("shared counter value = %d, want 1", b.Value())
	}
	if g1, g2 := r.Gauge("g", "G."), r.Gauge("g", "G."); g1 != g2 {
		t.Fatal("same name returned distinct gauges")
	}
}

// TestRegistryTypeConflictPanics: one base name cannot be both a counter
// and a gauge.
func TestRegistryTypeConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on counter/gauge type conflict")
		}
	}()
	r := NewRegistry()
	r.Counter("dual_total", "C.")
	r.Gauge("dual_total", "G.")
}

// TestInvalidMetricNamePanics: malformed names are programmer errors.
func TestInvalidMetricNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid metric name")
		}
	}()
	NewRegistry().Counter("bad name!", "X.")
}

// TestGaugeRoundTrip exercises the atomic float bits encoding.
func TestGaugeRoundTrip(t *testing.T) {
	var g Gauge
	for _, v := range []float64{0, -1.5, 1e-9, 123456.789} {
		g.Set(v)
		if got := g.Value(); got != v {
			t.Errorf("gauge round-trip %v -> %v", v, got)
		}
	}
}
