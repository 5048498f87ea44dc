package obs_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"mlcr/internal/experiments"
	"mlcr/internal/fstartbench"
	"mlcr/internal/obs"
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
	greedy := experiments.SetupOf("Greedy-Match", 0)
	if greedy.Name != "Greedy-Match" {
		t.Fatalf("baseline order changed: got %q", greedy.Name)
	}
	experiments.RunObserved(greedy, w, loose*0.5, o)

	var tb, cb, ab bytes.Buffer
	if err := o.Trace.WriteJSONL(&tb); err != nil {
		t.Fatal(err)
	}
	if err := o.Trace.WriteChromeTrace(&cb); err != nil {
		t.Fatal(err)
	}
	if err := o.Trace.WriteAuditJSONL(&ab); err != nil {
		t.Fatal(err)
	}
	return exports{tb.Bytes(), cb.Bytes(), ab.Bytes(), []byte(o.Metrics.Snapshot())}
}

// TestObservedRunDeterministic: two identical seeded runs produce
// byte-identical JSONL traces, audit logs and metrics snapshots — the
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
		t.Error("metrics snapshots of identical runs differ")
	}
}

// TestObservedExportsPinned pins the audit JSONL and the Chrome trace of
// runObserved by sha256. Both are user-facing files: a change to how
// events are stored or derived must leave them byte for byte as they
// are. The JSONL trace is not pinned; its line set is the event model.
func TestObservedExportsPinned(t *testing.T) {
	x := runObserved(t)
	for _, c := range []struct {
		name string
		got  []byte
		want string
	}{
		{"audit JSONL", x.audit, "894766d75e9463d9969cc3e9997b6121bbfdb0296ef6b00220d7df90ad4eed46"},
		{"Chrome trace", x.chrome, "08ef74383149b5df2ed1f7ad1099643aa5f99d324dbf6261a2ecafc09e2da249"},
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
	res := experiments.RunObserved(experiments.SetupOf("Greedy-Match", 0), w, loose*0.5, o)

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

	snap := o.Metrics.Snapshot()
	for _, want := range []string{
		"mlcr_invocations_total",
		"mlcr_cold_starts_total",
		"# TYPE mlcr_startup_seconds summary",
		`mlcr_startup_seconds{quantile="0.5"} `,
		`mlcr_startup_seconds{quantile="0.999"} `,
		`mlcr_warm_starts_total{level="1"}`,
		// The registry's startup summary and the run's collector are two
		// records of one run: their count and sum must agree exactly.
		"mlcr_startup_seconds_count " + strconv.Itoa(res.Metrics.Count()) + "\n",
		"mlcr_startup_seconds_sum " + strconv.FormatFloat(res.Metrics.TotalStartup().Seconds(), 'g', -1, 64) + "\n",
	} {
		if !strings.Contains(snap, want) {
			t.Errorf("metrics snapshot missing %q", want)
		}
	}
}
