package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// Recorder is the trace pillar: it retains every event in memory for
// later export. It is safe for concurrent use (the HTTP gateway emits
// under its own lock but exports concurrently).
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Emit appends ev to the recording.
func (r *Recorder) Emit(ev Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Events returns a copy of the recorded events in emission order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return append([]Event(nil), r.view()...)
}

// view returns the events recorded so far without copying them: a
// slice capped at its length, taken under the lock. The store is
// append-only, so no element of the view is ever written again, and
// an Emit that grows the store writes past the cap or into a new
// array; exports read the view without holding the lock.
func (r *Recorder) view() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events[:len(r.events):len(r.events)]
}

// jsonEvent is the JSONL wire form of an Event. Every field is always
// present so two identical runs produce byte-identical output.
type jsonEvent struct {
	Kind      string  `json:"kind"`
	AtUS      int64   `json:"at_us"`
	Seq       int     `json:"seq"`
	Fn        int     `json:"fn"`
	Container int     `json:"container"`
	Level     int     `json:"level"`
	Action    int     `json:"action"`
	Cold      bool    `json:"cold"`
	DurUS     int64   `json:"dur_us"`
	Value     float64 `json:"value"`
	Step      int     `json:"step"`
	Detail    string  `json:"detail"`
}

// WriteJSONL writes one JSON object per event, in emission order. The
// encoding is deterministic: fixed field order, all fields present.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range r.view() {
		je := jsonEvent{
			Kind:      ev.Kind.String(),
			AtUS:      ev.At.Microseconds(),
			Seq:       ev.Seq,
			Fn:        ev.Fn,
			Container: ev.Container,
			Level:     ev.Level,
			Action:    ev.Action,
			Cold:      ev.Cold,
			DurUS:     ev.Dur.Microseconds(),
			Value:     ev.Value,
			Step:      ev.Step,
			Detail:    ev.Detail,
		}
		if err := enc.Encode(je); err != nil {
			return fmt.Errorf("obs: jsonl: %w", err)
		}
	}
	return bw.Flush()
}

// Chrome trace_event mapping. Thread IDs within the single trace
// process: tid 0 is the simulation engine, tid 1 the scheduler, and
// each container gets its own row at containerTIDBase+ID so startup
// spans of concurrent containers render side by side.
const (
	engineTID        = 0
	schedulerTID     = 1
	containerTIDBase = 10
)

// chromeEvent is one entry of the Chrome trace_event "traceEvents"
// array (JSON Array Format).
type chromeEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	TS    int64          `json:"ts"` // microseconds
	Dur   int64          `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Cat   string         `json:"cat,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the recorded events in Chrome trace_event
// JSON, openable in chrome://tracing or Perfetto. Instant events map to
// ph "i", and TrainStep TD errors to a counter track ("C"). A decision
// maps to two entries: an instant on the scheduler row and its
// container's startup as a complete span ("X") on the container's own
// row. Entries are written as they are built, between the framing of
// one {"traceEvents":[...],"displayTimeUnit":"ms"} object, so the
// export holds one event's entries at a time, not the whole array.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	events := r.view()
	entries := []chromeEvent{threadName(engineTID, "sim-engine"), threadName(schedulerTID, "scheduler")}
	// Name each container row; sorted for deterministic output.
	seen := map[int]bool{}
	var ids []int
	for _, ev := range events {
		switch ev.Kind {
		case KindScheduleDecided, KindContainerEvicted, KindVolumeSwapped:
			if !seen[ev.Container] {
				seen[ev.Container] = true
				ids = append(ids, ev.Container)
			}
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		entries = append(entries, threadName(containerTIDBase+id, "c"+strconv.Itoa(id)))
	}
	// The array always opens with the thread-name rows, so the first
	// separator written is the object's opening framing.
	bw := bufio.NewWriter(w)
	sep := `{"traceEvents":[`
	write := func(entries []chromeEvent) error {
		for i := range entries {
			b, err := json.Marshal(&entries[i])
			if err == nil {
				_, err = bw.WriteString(sep)
			}
			if err == nil {
				_, err = bw.Write(b)
			}
			if err != nil {
				return fmt.Errorf("obs: chrome trace: %w", err)
			}
			sep = ","
		}
		return nil
	}
	if err := write(entries); err != nil {
		return err
	}
	for _, ev := range events {
		if err := write(appendChrome(entries[:0], ev)); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("],\"displayTimeUnit\":\"ms\"}\n"); err != nil {
		return fmt.Errorf("obs: chrome trace: %w", err)
	}
	return bw.Flush()
}

func threadName(tid int, name string) chromeEvent {
	return chromeEvent{
		Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
		Args: map[string]any{"name": name},
	}
}

// appendChrome appends ev's Chrome entries to out: none for an unknown
// kind, two for a decision, one otherwise.
func appendChrome(out []chromeEvent, ev Event) []chromeEvent {
	ts := ev.At.Microseconds()
	switch ev.Kind {
	case KindEventFired:
		return append(out, chromeEvent{Name: ev.Detail, Ph: "i", TS: ts, Pid: 1, Tid: engineTID, Cat: "engine", Scope: "t"})
	case KindInvocationArrived:
		return append(out, chromeEvent{
			Name: "invoke fn" + strconv.Itoa(ev.Fn), Ph: "i", TS: ts, Pid: 1, Tid: schedulerTID,
			Cat: "scheduler", Scope: "t", Args: map[string]any{"seq": ev.Seq},
		})
	case KindMatchAttempted:
		args := map[string]any{"level": ev.Level, "est_us": ev.Dur.Microseconds()}
		if ev.Detail != "" {
			args["pruned"] = ev.Detail
		}
		return append(out, chromeEvent{
			Name: "match c" + strconv.Itoa(ev.Container), Ph: "i", TS: ts, Pid: 1, Tid: schedulerTID,
			Cat: "scheduler", Scope: "t", Args: args,
		})
	case KindScheduleDecided:
		span := "reuse L" + strconv.Itoa(ev.Level) + " fn" + strconv.Itoa(ev.Fn)
		if ev.Cold {
			span = "cold-start fn" + strconv.Itoa(ev.Fn)
		}
		return append(out, chromeEvent{
			Name: "decide fn" + strconv.Itoa(ev.Fn), Ph: "i", TS: ts, Pid: 1, Tid: schedulerTID,
			Cat: "scheduler", Scope: "t",
			Args: map[string]any{"action": ev.Action, "cold": ev.Cold, "level": ev.Level, "startup_us": ev.Dur.Microseconds()},
		}, chromeEvent{
			Name: span, Ph: "X", TS: ts, Dur: ev.Dur.Microseconds(),
			Pid: 1, Tid: containerTIDBase + ev.Container, Cat: "container",
			Args: map[string]any{"seq": ev.Seq},
		})
	case KindContainerEvicted:
		return append(out, chromeEvent{
			Name: "evict (" + ev.Detail + ")", Ph: "i", TS: ts, Pid: 1,
			Tid: containerTIDBase + ev.Container, Cat: "pool", Scope: "t",
		})
	case KindVolumeSwapped:
		return append(out, chromeEvent{
			Name: "volume-swap", Ph: "i", TS: ts, Pid: 1,
			Tid: containerTIDBase + ev.Container, Cat: "cleaner", Scope: "t",
			Args: map[string]any{"detail": ev.Detail},
		})
	case KindTrainStep:
		// Counter track: Perfetto plots the TD error over train steps.
		return append(out, chromeEvent{
			Name: "td_error", Ph: "C", TS: int64(ev.Step), Pid: 1, Tid: schedulerTID,
			Args: map[string]any{"td": ev.Value},
		})
	default:
		return out
	}
}
