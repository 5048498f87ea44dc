package obs_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"mlcr/internal/experiments"
	"mlcr/internal/fstartbench"
	"mlcr/internal/obs"
)

// runObserved replays one seeded Peak workload under Greedy-Match with
// the full observability bundle and returns the three exports.
func runObserved(t *testing.T) (trace, audit, metrics []byte, invocations int) {
	t.Helper()
	w := fstartbench.Build(fstartbench.Peak, 7, fstartbench.Options{})
	loose := experiments.CalibrateLoose(w)
	o := obs.NewObserver()
	greedy := experiments.SetupOf("Greedy-Match", 0)
	if greedy.Name != "Greedy-Match" {
		t.Fatalf("baseline order changed: got %q", greedy.Name)
	}
	experiments.RunObserved(greedy, w, loose*0.5, o)

	var tb, ab bytes.Buffer
	if err := o.Trace.WriteJSONL(&tb); err != nil {
		t.Fatal(err)
	}
	if err := o.Audit.WriteJSONL(&ab); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), ab.Bytes(), []byte(o.Metrics.Snapshot()), len(w.Invocations)
}

// TestObservedRunDeterministic: two identical seeded runs produce
// byte-identical JSONL traces, audit logs and metrics snapshots — the
// repository's reproducibility bar extended to the observability layer.
func TestObservedRunDeterministic(t *testing.T) {
	t1, a1, m1, _ := runObserved(t)
	t2, a2, m2, _ := runObserved(t)
	if !bytes.Equal(t1, t2) {
		t.Error("JSONL traces of identical runs differ")
	}
	if !bytes.Equal(a1, a2) {
		t.Error("audit logs of identical runs differ")
	}
	if !bytes.Equal(m1, m2) {
		t.Error("metrics snapshots of identical runs differ")
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

	if got := o.Audit.Len(); got != len(w.Invocations) {
		t.Errorf("audit has %d decisions, want %d", got, len(w.Invocations))
	}
	cold := 0
	for _, d := range o.Audit.Decisions() {
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
