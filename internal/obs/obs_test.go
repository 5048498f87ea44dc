package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"mlcr/internal/evict"
)

// sampleEvents returns a small trace covering every event kind.
func sampleEvents() []Event {
	return []Event{
		{Kind: KindInvocationArrived, At: 0, Seq: 0, Fn: 5},
		{Kind: KindMatchAttempted, At: 0, Seq: 0, Fn: 5, Container: 1, Level: 2, Dur: 800 * time.Millisecond},
		{Kind: KindMatchAttempted, At: 0, Seq: 0, Fn: 5, Container: 2, Level: 0, Detail: PruneNoMatch},
		{Kind: KindScheduleDecided, At: 0, Seq: 0, Fn: 5, Container: 1, Level: 2, Action: 1, Dur: 800 * time.Millisecond},
		{Kind: KindContainerReused, At: 0, Seq: 0, Fn: 5, Container: 1, Level: 2, Dur: 800 * time.Millisecond},
		{Kind: KindContainerCreated, At: time.Second, Seq: 1, Fn: 6, Container: 3, Cold: true, Dur: 4 * time.Second},
		{Kind: KindEventFired, At: 2 * time.Second, Seq: -1, Fn: -1, Detail: "finish/c1"},
		{Kind: KindContainerEvicted, At: 2 * time.Second, Seq: -1, Fn: 6, Container: 2, Detail: evict.ReasonCapacity},
		{Kind: KindVolumeSwapped, At: 3 * time.Second, Seq: -1, Fn: 7, Container: 1, Level: 2, Detail: "from=fn5 unmounts=1 mounts=2"},
		{Kind: KindTrainStep, Seq: -1, Fn: -1, Step: 42, Value: 0.125},
	}
}

// TestKindStrings: every kind has a distinct snake_case name.
func TestKindStrings(t *testing.T) {
	seen := map[string]Kind{}
	for k := KindEventFired; k <= KindTrainStep; k++ {
		s := k.String()
		if s == "unknown" || s == "" {
			t.Errorf("kind %d has no name", k)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("kinds %d and %d share name %q", prev, k, s)
		}
		seen[s] = k
	}
	if Kind(0).String() != "unknown" {
		t.Error("zero kind should stringify as unknown")
	}
}

// TestWriteJSONLDeterministic: the JSONL export is byte-stable across
// writes and every line is a JSON object with the full fixed field set.
func TestWriteJSONLDeterministic(t *testing.T) {
	rec := NewRecorder()
	for _, ev := range sampleEvents() {
		rec.Emit(ev)
	}
	var a, b bytes.Buffer
	if err := rec.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two JSONL exports of the same recorder differ")
	}

	lines := strings.Split(strings.TrimSuffix(a.String(), "\n"), "\n")
	if len(lines) != rec.Len() {
		t.Fatalf("got %d lines, want %d", len(lines), rec.Len())
	}
	wantKeys := []string{"kind", "at_us", "seq", "fn", "container", "level",
		"action", "cold", "dur_us", "value", "step", "detail"}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i+1, err)
		}
		for _, k := range wantKeys {
			if _, ok := m[k]; !ok {
				t.Errorf("line %d missing key %q", i+1, k)
			}
		}
	}
}

// TestWriteChromeTrace: the export is valid Chrome trace_event JSON with
// thread metadata and one renderable entry per event.
func TestWriteChromeTrace(t *testing.T) {
	rec := NewRecorder()
	evs := sampleEvents()
	for _, ev := range evs {
		rec.Emit(ev)
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", trace.DisplayTimeUnit)
	}
	names := map[string]bool{}
	meta := 0
	for i, ce := range trace.TraceEvents {
		for _, k := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ce[k]; !ok {
				t.Fatalf("traceEvents[%d] missing %q: %v", i, k, ce)
			}
		}
		switch ce["ph"] {
		case "M":
			meta++
			args := ce["args"].(map[string]any)
			names[args["name"].(string)] = true
		case "i", "X", "C":
		default:
			t.Errorf("traceEvents[%d] has unexpected phase %v", i, ce["ph"])
		}
	}
	if len(trace.TraceEvents)-meta != len(evs) {
		t.Errorf("got %d non-metadata entries, want %d", len(trace.TraceEvents)-meta, len(evs))
	}
	// Engine, scheduler and the touched containers each get a named row.
	for _, want := range []string{"sim-engine", "scheduler", "c1", "c2", "c3"} {
		if !names[want] {
			t.Errorf("missing thread_name metadata for %q", want)
		}
	}
}

// TestNilObserver: a nil *Observer and an empty Observer are inert but
// safe at every instrumentation point.
func TestNilObserver(t *testing.T) {
	var o *Observer
	o.Emit(Event{Kind: KindEventFired})
	if o.Tracing() || o.Auditing() {
		t.Error("nil observer claims to be active")
	}

	empty := &Observer{}
	empty.Emit(Event{Kind: KindEventFired})
	if empty.Tracing() || empty.Auditing() {
		t.Error("empty observer claims to be active")
	}
}

// TestAuditJSONLDeterministic: the audit export is byte-stable and
// round-trips through JSON.
func TestAuditJSONLDeterministic(t *testing.T) {
	a := &Audit{}
	a.Record(Decision{
		Seq: 0, Fn: 5, AtUS: 0,
		Candidates: []Candidate{
			{Container: 1, Level: 2, EstUS: 800_000},
			{Container: 2, Level: 0, EstUS: 9_000_000, Pruned: PruneNoMatch},
		},
		Chosen: 1, Level: 2, StartupUS: 800_000, Reward: -0.8,
	})
	a.Record(Decision{Seq: 1, Fn: 6, AtUS: 1_000_000, Chosen: -1, Cold: true,
		StartupUS: 4_000_000, Reward: -4})

	var x, y bytes.Buffer
	if err := a.WriteJSONL(&x); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteJSONL(&y); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(x.Bytes(), y.Bytes()) {
		t.Fatal("two audit exports differ")
	}
	for i, line := range strings.Split(strings.TrimSuffix(x.String(), "\n"), "\n") {
		var d Decision
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("audit line %d does not round-trip: %v", i+1, err)
		}
	}
}
