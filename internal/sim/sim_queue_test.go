package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// --- reference queue: the pre-optimization container/heap semantics ---

type refEvent struct {
	at  Time
	seq int64
	id  int
}

type refQueue []refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int)     { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)       { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any         { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }
func (q *refQueue) push(e refEvent)  { heap.Push(q, e) }
func (q *refQueue) popMin() refEvent { return heap.Pop(q).(refEvent) }

// TestOrderingFingerprintAgainstReference drives the 4-ary pooled queue
// and a container/heap reference with identical randomized scenarios —
// heavy timestamp collisions, events scheduling follow-up events — and
// requires the exact execution order (time and identity) to match. This
// is the engine-ordering lock: (time, then seq, FIFO among equal
// timestamps) survives the queue rebuild bit-for-bit.
func TestOrderingFingerprintAgainstReference(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		const initial = 200
		// Pre-generate the scenario so both executions see identical
		// input: initial timestamps plus, per initial event, follow-up
		// delays; follow-up events schedule nothing themselves.
		delays := make([]Time, initial)
		children := make([][]Time, initial)
		for i := range delays {
			delays[i] = Time(rng.Intn(8)) * time.Millisecond
			for k := rng.Intn(3); k > 0; k-- {
				children[i] = append(children[i], Time(rng.Intn(4))*time.Millisecond)
			}
		}

		type fired struct {
			at Time
			id int
		}
		// Engine execution: the payload is the event's identity.
		var got []fired
		e := NewEngine()
		nextID := initial
		var k EventKind
		k = e.RegisterKind(func(en *Engine, at Time, id int64) {
			got = append(got, fired{en.Now(), int(id)})
			if id < initial {
				for _, d := range children[id] {
					en.ScheduleKind(at+d, k, int64(nextID))
					nextID++
				}
			}
		})
		for i := 0; i < initial; i++ {
			e.ScheduleKind(delays[i], k, int64(i))
		}
		e.Run()

		// Reference execution over the identical scenario.
		nextID = initial
		var want []fired
		var q refQueue
		var seq int64
		push := func(at Time, id int) {
			q.push(refEvent{at: at, seq: seq, id: id})
			seq++
		}
		for i := 0; i < initial; i++ {
			push(delays[i], i)
		}
		for q.Len() > 0 {
			ev := q.popMin()
			want = append(want, fired{ev.at, ev.id})
			if ev.id < initial {
				for _, d := range children[ev.id] {
					cid := nextID
					nextID++
					push(ev.at+d, cid)
				}
			}
		}

		if len(got) != len(want) {
			t.Fatalf("trial %d: engine fired %d events, reference %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: divergence at step %d: engine %+v, reference %+v",
					trial, i, got[i], want[i])
			}
		}
	}
}

// TestTypedEventsDispatchAndOrder checks dispatch end-to-end: each
// registered handler receives (at, arg), events of different kinds
// interleave in strict (time, seq) order, and the observer hook sees
// every event's kind and payload.
func TestTypedEventsDispatchAndOrder(t *testing.T) {
	e := NewEngine()
	var log []string
	a := e.RegisterKind(func(en *Engine, at Time, arg int64) {
		log = append(log, fmt.Sprintf("a(%v,%d)", at, arg))
	})
	b := e.RegisterKind(func(en *Engine, at Time, arg int64) {
		log = append(log, fmt.Sprintf("b(%v,%d)", at, arg))
	})
	var hooked []string
	e.OnEvent = func(at Time, k EventKind, arg int64) {
		hooked = append(hooked, fmt.Sprintf("kind%d/%d", k, arg))
	}
	e.ScheduleKind(2*time.Second, a, 7)
	e.ScheduleKind(time.Second, b, 3)
	e.ScheduleKind(time.Second, a, 9) // same time as b/3, scheduled later
	e.Run()

	want := []string{"b(1s,3)", "a(1s,9)", "a(2s,7)"}
	wantHook := []string{"kind1/3", "kind0/9", "kind0/7"}
	if len(log) != len(want) || len(hooked) != len(wantHook) {
		t.Fatalf("log = %v, hooked = %v", log, hooked)
	}
	for i := range want {
		if log[i] != want[i] || hooked[i] != wantHook[i] {
			t.Fatalf("log = %v, want %v; hooked = %v, want %v", log, want, hooked, wantHook)
		}
	}
}

func TestScheduleKindUnregisteredPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleKind with unregistered kind did not panic")
		}
	}()
	e.ScheduleKind(time.Second, 5, 0)
}

// TestCancelStaleRefAfterRecycle is the ABA guard test: a ref to an
// event that fired and whose pooled struct was recycled for a newer
// event must not cancel — or double-fire — the newer event.
func TestCancelStaleRefAfterRecycle(t *testing.T) {
	e := NewEngine()
	ran := 0
	k := e.RegisterKind(func(*Engine, Time, int64) { ran++ })
	stale := e.ScheduleKind(time.Second, k, 0)
	e.Run()
	if ran != 1 {
		t.Fatalf("first event ran %d times, want 1", ran)
	}
	if stale.Scheduled() {
		t.Fatal("ref to fired event still reports Scheduled")
	}
	// The pool now holds the recycled struct; the next Schedule reuses it.
	second := e.ScheduleKind(2*time.Second, k, 1)
	if e.Cancel(stale) {
		t.Fatal("stale ref cancelled a recycled event (ABA)")
	}
	if !second.Scheduled() {
		t.Fatal("second event lost after stale Cancel attempt")
	}
	e.Run()
	if ran != 2 {
		t.Fatalf("events ran %d times, want 2 (second must fire exactly once)", ran)
	}
	if e.Cancel(second) {
		t.Fatal("Cancel returned true for already-fired event")
	}
}

// TestCancelledStructReuseInvalidatesRef covers the cancel → recycle →
// reschedule path of the same pooled struct.
func TestCancelledStructReuseInvalidatesRef(t *testing.T) {
	e := NewEngine()
	var ran []int64
	k := logKind(e, &ran)
	ref := e.ScheduleKind(time.Second, k, 13)
	if !e.Cancel(ref) {
		t.Fatal("Cancel of pending event returned false")
	}
	if e.Cancel(ref) {
		t.Fatal("second Cancel of the same ref returned true")
	}
	e.ScheduleKind(time.Second, k, 1)
	if e.Cancel(ref) {
		t.Fatal("stale ref cancelled the event reusing its struct")
	}
	e.Run()
	if !equalLog(ran, 1) {
		t.Fatalf("ran %v, want only the kept event [1]", ran)
	}
}

// TestRecycledEventReadsZero makes use-after-recycle observable: once an
// event fires or is cancelled, its pooled struct reads zero on every
// field but pos and gen, so a stale read of at, seq, arg or kind yields
// nothing plausible and the sim, golden and fingerprint tests fail.
func TestRecycledEventReadsZero(t *testing.T) {
	e := NewEngine()
	e.RegisterKind(func(*Engine, Time, int64) {})
	kind := e.RegisterKind(func(*Engine, Time, int64) {}) // non-zero kind
	for _, tc := range []struct {
		name string
		ref  func() EventRef
		end  func(EventRef)
	}{
		{"fired", func() EventRef { return e.ScheduleKind(e.Now()+time.Second, kind, 42) }, func(EventRef) { e.Run() }},
		{"cancelled", func() EventRef { return e.ScheduleKind(e.Now()+time.Second, kind, 7) }, func(r EventRef) { e.Cancel(r) }},
	} {
		ref := tc.ref()
		tc.end(ref)
		ev := ref.ev
		if ev.at != 0 || ev.seq != 0 || ev.arg != 0 || ev.kind != 0 ||
			ev.pos != -1 || ev.gen != ref.gen+1 {
			t.Errorf("%s: recycled event %+v, want zero but pos -1, gen %d", tc.name, *ev, ref.gen+1)
		}
	}
}

// TestCancelMiddleOfQueue removes events from interior heap positions
// and verifies the remaining order is untouched.
func TestCancelMiddleOfQueue(t *testing.T) {
	e := NewEngine()
	var order []int64
	k := logKind(e, &order)
	refs := make([]EventRef, 20)
	for i := range refs {
		refs[i] = e.ScheduleKind(Time(i)*time.Millisecond, k, int64(i))
	}
	for _, i := range []int{3, 11, 4, 17, 0, 19} {
		if !e.Cancel(refs[i]) {
			t.Fatalf("Cancel of pending event %d returned false", i)
		}
	}
	e.Run()
	if !equalLog(order, 1, 2, 5, 6, 7, 8, 9, 10, 12, 13, 14, 15, 16, 18) {
		t.Fatalf("order = %v after cancelling 0, 3, 4, 11, 17, 19", order)
	}
}

// TestRunUntilExactTimestamp: RunUntil is strict. Events at the
// deadline stay queued while the clock moves to the deadline, so the
// caller acts at that instant before they run; the next RunUntil
// resumes cleanly.
func TestRunUntilExactTimestamp(t *testing.T) {
	e := NewEngine()
	var ran []int64
	k := logKind(e, &ran)
	for i, d := range []Time{1, 2, 2, 3} {
		e.ScheduleKind(d*time.Second, k, int64(i))
	}
	if n := e.RunUntil(2 * time.Second); n != 1 {
		t.Fatalf("RunUntil(2s) executed %d events, want 1 (deadline exclusive)", n)
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("Now = %v, want 2s", e.Now())
	}
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", e.Pending())
	}
	// Something scheduled at the deadline now runs after the two events
	// already due there.
	e.ScheduleKind(2*time.Second, k, 9)
	if n := e.RunUntil(2500 * time.Millisecond); n != 3 {
		t.Fatalf("RunUntil(2.5s) executed %d events, want 3", n)
	}
	if e.Now() != 2500*time.Millisecond {
		t.Fatalf("Now = %v, want 2.5s", e.Now())
	}
	if n := e.RunUntil(3 * time.Second); n != 0 {
		t.Fatalf("RunUntil(3s) executed %d events, want 0", n)
	}
	if n := e.Run(); n != 1 || !equalLog(ran, 0, 1, 2, 9, 3) {
		t.Fatalf("Run executed %d, order %v, want 1 and [0 1 2 9 3]", n, ran)
	}
}

// TestStopMidBatchOfSimultaneousEvents: Stop inside one of several
// equal-timestamp events halts after the current event; the rest of the
// batch stays queued and a subsequent Run picks them up in FIFO order.
func TestStopMidBatchOfSimultaneousEvents(t *testing.T) {
	e := NewEngine()
	var order []int64
	k := e.RegisterKind(func(en *Engine, _ Time, i int64) {
		order = append(order, i)
		if i == 1 {
			en.Stop()
		}
	})
	for i := int64(0); i < 5; i++ {
		e.ScheduleKind(time.Second, k, i)
	}
	if n := e.Run(); n != 2 {
		t.Fatalf("Run executed %d events after mid-batch Stop, want 2", n)
	}
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", e.Pending())
	}
	if n := e.Run(); n != 3 {
		t.Fatalf("resumed Run executed %d events, want 3", n)
	}
	if !equalLog(order, 0, 1, 2, 3, 4) {
		t.Fatalf("batch order = %v, want FIFO 0..4", order)
	}
	if e.Now() != time.Second {
		t.Fatalf("Now = %v, want 1s", e.Now())
	}
}

// TestSteadyStateScheduleFireAllocationFree: after warm-up, a typed
// schedule/fire cycle must not allocate — the free list recycles the
// popped struct for the next schedule.
func TestSteadyStateScheduleFireAllocationFree(t *testing.T) {
	e := NewEngine()
	var fired int64
	kind := e.RegisterKind(func(en *Engine, at Time, arg int64) { fired++ })
	// Warm-up: populate the event pool and the heap slice.
	for i := 0; i < 100; i++ {
		e.ScheduleKind(e.Now()+time.Millisecond, kind, int64(i))
		e.Run()
	}
	avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleKind(e.Now()+time.Millisecond, kind, 1)
		e.Run()
	})
	if avg != 0 {
		t.Errorf("steady-state typed schedule/fire allocates %.2f per cycle, want 0", avg)
	}
}

func BenchmarkEngineTypedEvent(b *testing.B) {
	e := NewEngine()
	kind := e.RegisterKind(func(en *Engine, at Time, arg int64) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleKind(e.Now()+time.Millisecond, kind, int64(i))
		e.Run()
	}
}

func BenchmarkEngineQueueChurn(b *testing.B) {
	// 1024 outstanding events at all times: each fire schedules a
	// replacement, exercising heap sift depth at a realistic queue size.
	e := NewEngine()
	kind := EventKind(0)
	kind = e.RegisterKind(func(en *Engine, at Time, arg int64) {
		en.ScheduleKind(at+Time(1+arg%7)*time.Millisecond, kind, arg)
	})
	for i := 0; i < 1024; i++ {
		e.ScheduleKind(Time(i%13)*time.Millisecond, kind, int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
