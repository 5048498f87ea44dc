package obs_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"mlcr/internal/experiments"
	"mlcr/internal/fstartbench"
	"mlcr/internal/obs"
	"mlcr/internal/obs/perf"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
)

// exports is every file one observed run writes.
type exports struct {
	trace, chrome, audit, metrics []byte
}

// runObserved replays one seeded Peak workload under Greedy-Match with
// the full observability bundle and returns its exports.
func runObserved(t *testing.T) exports {
	t.Helper()
	w := fstartbench.Build(fstartbench.Peak, 7, fstartbench.Options{})
	loose := experiments.CalibrateLoose(w)
	o := obs.NewObserver()
	res := platform.New(platform.Config{PoolCapacityMB: loose * 0.5, Obs: o}, policy.NewGreedyMatch()).Run(w)

	var tb, cb, ab, mb bytes.Buffer
	if err := o.Trace.WriteJSONL(&tb); err != nil {
		t.Fatal(err)
	}
	if err := o.Trace.WriteChromeTrace(&cb); err != nil {
		t.Fatal(err)
	}
	if err := o.Trace.WriteAuditJSONL(&ab); err != nil {
		t.Fatal(err)
	}
	if err := obs.WritePrometheus(&mb, res.ExportMetrics()); err != nil {
		t.Fatal(err)
	}
	return exports{tb.Bytes(), cb.Bytes(), ab.Bytes(), mb.Bytes()}
}

// TestObservedRunDeterministic: two identical seeded runs produce
// byte-identical JSONL traces, audit logs and metrics exports — the
// repository's reproducibility bar extended to the observability layer.
func TestObservedRunDeterministic(t *testing.T) {
	x, y := runObserved(t), runObserved(t)
	if !bytes.Equal(x.trace, y.trace) {
		t.Error("JSONL traces of identical runs differ")
	}
	if !bytes.Equal(x.audit, y.audit) {
		t.Error("audit logs of identical runs differ")
	}
	if !bytes.Equal(x.metrics, y.metrics) {
		t.Error("metrics exports of identical runs differ")
	}
}

// TestObservedExportsPinned pins the audit JSONL, the Chrome trace and
// the Prometheus metrics of runObserved by sha256. All three are
// user-facing files: a change to how events are stored or how metrics
// are derived must leave them byte for byte as they are. The JSONL
// trace is not pinned; its line set is the event model.
func TestObservedExportsPinned(t *testing.T) {
	x := runObserved(t)
	for _, c := range []struct {
		name string
		got  []byte
		want string
	}{
		{"audit JSONL", x.audit, "894766d75e9463d9969cc3e9997b6121bbfdb0296ef6b00220d7df90ad4eed46"},
		{"Chrome trace", x.chrome, "08ef74383149b5df2ed1f7ad1099643aa5f99d324dbf6261a2ecafc09e2da249"},
		{"Prometheus metrics", x.metrics, "6d8537f9557b37f314bec625a6a97b7aedeec0b32d884892984cbdbebf3bef57"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(c.got)); got != c.want {
			t.Errorf("%s sha256 = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestObservedRunContent sanity-checks what one observed run collects:
// every invocation arrives once, engine events are named completions,
// the audit covers every invocation, and the headline counters line up
// with the workload.
func TestObservedRunContent(t *testing.T) {
	w := fstartbench.Build(fstartbench.Peak, 7, fstartbench.Options{})
	loose := experiments.CalibrateLoose(w)
	o := obs.NewObserver()
	res := platform.New(platform.Config{PoolCapacityMB: loose * 0.5, Obs: o}, policy.NewGreedyMatch()).Run(w)

	arrivals, finishes := 0, 0
	for _, ev := range o.Trace.Events() {
		switch ev.Kind {
		case obs.KindInvocationArrived:
			arrivals++
		case obs.KindEventFired:
			if !strings.HasPrefix(ev.Detail, "finish/c") {
				t.Fatalf("engine event with unexpected name %q", ev.Detail)
			}
			finishes++
		}
	}
	if want := len(w.Invocations); arrivals != want || finishes != want {
		t.Errorf("got %d arrivals / %d finish events, want %d each", arrivals, finishes, want)
	}

	decisions := obs.Decisions(o.Trace.Events())
	if got := len(decisions); got != len(w.Invocations) {
		t.Errorf("audit has %d decisions, want %d", got, len(w.Invocations))
	}
	cold := 0
	for _, d := range decisions {
		if d.Cold {
			cold++
			if d.Chosen != -1 {
				t.Errorf("cold decision seq %d has chosen=%d, want -1", d.Seq, d.Chosen)
			}
		}
		if d.Reward > 0 {
			t.Errorf("decision seq %d has positive reward %v", d.Seq, d.Reward)
		}
	}
	if cold != res.Metrics.ColdStarts() {
		t.Errorf("audit says %d cold starts, metrics say %d", cold, res.Metrics.ColdStarts())
	}

	var b strings.Builder
	if err := obs.WritePrometheus(&b, res.ExportMetrics()); err != nil {
		t.Fatal(err)
	}
	snap := b.String()
	for _, want := range []string{
		"mlcr_invocations_total",
		"mlcr_cold_starts_total",
		"# TYPE mlcr_startup_seconds summary",
		`mlcr_startup_seconds{quantile="0.5"} `,
		`mlcr_startup_seconds{quantile="0.999"} `,
		`mlcr_warm_starts_total{level="1"}`,
		// The startup summary is the run's collector exported: its count
		// and sum must print exactly what the collector holds.
		"mlcr_startup_seconds_count " + strconv.Itoa(res.Metrics.Count()) + "\n",
		"mlcr_startup_seconds_sum " + strconv.FormatFloat(res.Metrics.TotalStartup().Seconds(), 'g', -1, 64) + "\n",
	} {
		if !strings.Contains(snap, want) {
			t.Errorf("metrics export missing %q", want)
		}
	}
}

// sampleLineRe matches one exposition-format sample line: metric name,
// optional label set, a space, and a number.
var sampleLineRe = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})? ` +
		`[-+]?([0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|Inf|NaN)$`)

// TestPrometheusFormatValid runs a lightweight exposition-format
// validator over an exported run: the platform's series of an observed
// Peak replay (counters, gauges, warm starts by level, evictions by
// reason, the startup summary) and the phase summaries of its profiler,
// the shape an observed gateway serves. Every sample line must parse,
// and every sample must be preceded by its family's TYPE line.
func TestPrometheusFormatValid(t *testing.T) {
	w := fstartbench.Build(fstartbench.Peak, 7, fstartbench.Options{})
	var tick time.Duration
	o := &obs.Observer{Perf: perf.New(func() time.Duration { tick += time.Microsecond; return tick })}
	res := platform.New(platform.Config{PoolCapacityMB: experiments.CalibrateLoose(w) * 0.3, Obs: o}, policy.NewGreedyMatch()).Run(w)
	var b strings.Builder
	if err := obs.WritePrometheus(&b, append(res.ExportMetrics(), obs.PhaseMetrics(o.Perf)...)); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{`mlcr_phase_seconds_count{phase="schedule"} 300`, `reason="capacity"`} {
		if !strings.Contains(text, want) {
			t.Fatalf("export lacks %q:\n%s", want, text)
		}
	}

	typed := map[string]bool{}
	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
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
