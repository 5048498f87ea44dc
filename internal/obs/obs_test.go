package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"mlcr/internal/evict"
)

// sampleEvents returns a small trace covering every event kind: three
// decisions, the second with two candidates and, between them and the
// decision, a completion, an eviction and a volume swap.
func sampleEvents() []Event {
	return []Event{
		{Kind: KindInvocationArrived, At: 0, Seq: 0, Fn: 5},
		{Kind: KindScheduleDecided, At: 0, Seq: 0, Fn: 5, Container: 1, Action: -1, Cold: true, Dur: 4 * time.Second},
		{Kind: KindInvocationArrived, At: 5 * time.Second, Seq: 1, Fn: 6},
		{Kind: KindMatchAttempted, At: 5 * time.Second, Seq: 1, Fn: 6, Container: 1, Level: 2, Dur: 800 * time.Millisecond},
		{Kind: KindMatchAttempted, At: 5 * time.Second, Seq: 1, Fn: 6, Container: 2, Level: 0, Dur: 9 * time.Second, Detail: PruneNoMatch},
		{Kind: KindEventFired, At: 5 * time.Second, Seq: -1, Fn: -1, Detail: "finish/c3"},
		{Kind: KindContainerEvicted, At: 5 * time.Second, Seq: -1, Fn: 4, Container: 2, Detail: evict.ReasonCapacity},
		{Kind: KindVolumeSwapped, At: 5 * time.Second, Seq: -1, Fn: 6, Container: 1, Level: 2, Detail: "from=fn5 unmounts=1 mounts=2"},
		{Kind: KindScheduleDecided, At: 5 * time.Second, Seq: 1, Fn: 6, Container: 1, Level: 2, Action: 1, Dur: 800 * time.Millisecond},
		// A policy error: the policy chose container 42, which is not
		// in the pool, and the platform served a cold start instead.
		{Kind: KindInvocationArrived, At: 6 * time.Second, Seq: 2, Fn: 7},
		{Kind: KindScheduleDecided, At: 6 * time.Second, Seq: 2, Fn: 7, Container: 3, Action: 42, Cold: true, Dur: 3 * time.Second},
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
// thread metadata, one renderable entry per event and one more per
// decision.
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
	// A decision renders twice: on the scheduler row and as its
	// container's startup span.
	if want := len(evs) + len(Decisions(evs)); len(trace.TraceEvents)-meta != want {
		t.Errorf("got %d non-metadata entries, want %d", len(trace.TraceEvents)-meta, want)
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
	if o.Tracing() {
		t.Error("nil observer claims to be active")
	}

	empty := &Observer{}
	empty.Emit(Event{Kind: KindEventFired})
	if empty.Tracing() {
		t.Error("empty observer claims to be active")
	}
}

// TestAuditJSONLDeterministic: the audit is a reduction of the trace,
// one decision per ScheduleDecided with the MatchAttempted candidates
// of its own invocation, and its export is byte-stable and round-trips
// through JSON.
func TestAuditJSONLDeterministic(t *testing.T) {
	want := []Decision{
		{Seq: 0, Fn: 5, AtUS: 0, Chosen: -1, Cold: true, StartupUS: 4_000_000, Reward: -4},
		{
			Seq: 1, Fn: 6, AtUS: 5_000_000,
			Candidates: []Candidate{
				{Container: 1, Level: 2, EstUS: 800_000},
				{Container: 2, Level: 0, EstUS: 9_000_000, Pruned: PruneNoMatch},
			},
			Chosen: 1, Level: 2, StartupUS: 800_000, Reward: -0.8,
		},
		// The policy's raw choice stays beside what was served, and the
		// previous decision's candidates do not carry over.
		{Seq: 2, Fn: 7, AtUS: 6_000_000, Chosen: 42, Cold: true, StartupUS: 3_000_000, Reward: -3},
	}
	if got := Decisions(sampleEvents()); !reflect.DeepEqual(got, want) {
		t.Fatalf("Decisions(sampleEvents()) =\n%+v\nwant\n%+v", got, want)
	}
	// Candidates whose decision is missing (a trace cut inside
	// invocation 1) or already made (decision 1 repeated) go to no later
	// decision.
	evs := sampleEvents()
	cut := append(evs[:4:4], evs[9:]...)
	if got := Decisions(cut); len(got) != 2 || got[1].Candidates != nil {
		t.Errorf("Decisions(cut trace) = %+v, want decision 2 without candidates", got)
	}
	repeated := append(evs[:9:9], evs[8])
	if got := Decisions(repeated); len(got) != 3 || got[2].Candidates != nil {
		t.Errorf("Decisions(repeated decision) = %+v, want the repeat without candidates", got)
	}

	rec := NewRecorder()
	for _, ev := range sampleEvents() {
		rec.Emit(ev)
	}
	var x, y bytes.Buffer
	if err := rec.WriteAuditJSONL(&x); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteAuditJSONL(&y); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(x.Bytes(), y.Bytes()) {
		t.Fatal("two audit exports differ")
	}
	lines := strings.Split(strings.TrimSuffix(x.String(), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("got %d audit lines, want %d", len(lines), len(want))
	}
	// A decision on an empty pool has no candidate set: null, not [].
	if !strings.Contains(lines[0], `"candidates":null`) {
		t.Errorf("first decision %s, want \"candidates\":null", lines[0])
	}
	for i, line := range lines {
		var d Decision
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("audit line %d does not round-trip: %v", i+1, err)
		}
		if !reflect.DeepEqual(d, want[i]) {
			t.Errorf("audit line %d = %+v, want %+v", i+1, d, want[i])
		}
	}
}
