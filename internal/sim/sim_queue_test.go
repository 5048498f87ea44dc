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
		// Engine execution.
		var got []fired
		e := NewEngine()
		nextID := initial
		for i := 0; i < initial; i++ {
			i := i
			e.Schedule(delays[i], "init", func(en *Engine) {
				got = append(got, fired{en.Now(), i})
				for _, d := range children[i] {
					cid := nextID
					nextID++
					en.After(d, "child", func(en *Engine) {
						got = append(got, fired{en.Now(), cid})
					})
				}
			})
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

// TestTypedEventsDispatchAndOrder checks the typed path end-to-end:
// registered handlers receive (at, arg), interleave with closure events
// in strict (time, seq) order, and the observer hook sees typed events
// with an empty name.
func TestTypedEventsDispatchAndOrder(t *testing.T) {
	e := NewEngine()
	var log []string
	kind := e.RegisterKind(func(en *Engine, at Time, arg int64) {
		log = append(log, fmt.Sprintf("typed(%v,%d)", at, arg))
	})
	var hooked []string
	e.OnEvent = func(at Time, k EventKind, arg int64, name string) {
		if k == KindFunc {
			hooked = append(hooked, name)
		} else {
			hooked = append(hooked, fmt.Sprintf("kind%d/%d", k, arg))
			if name != "" {
				t.Errorf("typed event carried name %q, want empty", name)
			}
		}
	}
	e.ScheduleKind(2*time.Second, kind, 7)
	e.Schedule(time.Second, "closure-a", func(*Engine) { log = append(log, "a") })
	e.ScheduleKind(time.Second, kind, 9) // same time as closure-a, scheduled later
	e.Run()

	want := []string{"a", "typed(1s,9)", "typed(2s,7)"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
	wantHook := []string{"closure-a", "kind1/9", "kind1/7"}
	for i := range wantHook {
		if hooked[i] != wantHook[i] {
			t.Fatalf("hooked = %v, want %v", hooked, wantHook)
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

// TestReserveSeqsMatchesBulkScheduling locks the replay contract the
// platform relies on: scheduling a pre-ordered stream lazily with
// reserved sequence numbers produces exactly the execution order of
// scheduling it in bulk up front, including FIFO ties between stream
// events and follow-up events at equal timestamps.
func TestReserveSeqsMatchesBulkScheduling(t *testing.T) {
	// Arrivals with heavy duplication; each arrival schedules a
	// "finish" zero and three ms later (colliding with later arrivals).
	arrivals := []Time{0, 0, 1, 1, 1, 2, 4, 4, 4, 4, 7, 7}
	run := func(lazy bool) []string {
		var log []string
		e := NewEngine()
		finish := e.RegisterKind(func(en *Engine, at Time, arg int64) {
			log = append(log, fmt.Sprintf("finish/%d@%v", arg, at))
		})
		var arrive Handler
		kindArrival := EventKind(0)
		var base int64
		arrive = func(en *Engine, at Time, arg int64) {
			log = append(log, fmt.Sprintf("arrive/%d@%v", arg, at))
			en.ScheduleKind(at, finish, arg)
			en.ScheduleKind(at+3*time.Millisecond, finish, 100+arg)
			if lazy && int(arg+1) < len(arrivals) {
				en.ScheduleKindSeq(arrivals[arg+1]*time.Millisecond, kindArrival, arg+1, base+arg+1)
			}
		}
		kindArrival = e.RegisterKind(arrive)
		if lazy {
			base = e.ReserveSeqs(int64(len(arrivals)))
			e.ScheduleKindSeq(arrivals[0]*time.Millisecond, kindArrival, 0, base)
		} else {
			for i, at := range arrivals {
				e.ScheduleKind(at*time.Millisecond, kindArrival, int64(i))
			}
		}
		e.Run()
		return log
	}
	bulk, lazy := run(false), run(true)
	if len(bulk) != len(lazy) {
		t.Fatalf("bulk fired %d events, lazy %d", len(bulk), len(lazy))
	}
	for i := range bulk {
		if bulk[i] != lazy[i] {
			t.Fatalf("divergence at step %d: bulk %q, lazy %q\nbulk: %v\nlazy: %v",
				i, bulk[i], lazy[i], bulk, lazy)
		}
	}
}

func TestScheduleKindSeqUnreservedPanics(t *testing.T) {
	e := NewEngine()
	kind := e.RegisterKind(func(*Engine, Time, int64) {})
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleKindSeq with unreserved seq did not panic")
		}
	}()
	e.ScheduleKindSeq(time.Second, kind, 0, 5)
}

// TestCancelStaleRefAfterRecycle is the ABA guard test: a ref to an
// event that fired and whose pooled struct was recycled for a newer
// event must not cancel — or double-fire — the newer event.
func TestCancelStaleRefAfterRecycle(t *testing.T) {
	e := NewEngine()
	ran := 0
	stale := e.Schedule(time.Second, "first", func(*Engine) { ran++ })
	e.Run()
	if ran != 1 {
		t.Fatalf("first event ran %d times, want 1", ran)
	}
	if stale.Scheduled() {
		t.Fatal("ref to fired event still reports Scheduled")
	}
	// The pool now holds the recycled struct; the next Schedule reuses it.
	second := e.Schedule(2*time.Second, "second", func(*Engine) { ran++ })
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
	ran := 0
	ref := e.Schedule(time.Second, "doomed", func(*Engine) { t.Error("cancelled event ran") })
	if !e.Cancel(ref) {
		t.Fatal("Cancel of pending event returned false")
	}
	if e.Cancel(ref) {
		t.Fatal("second Cancel of the same ref returned true")
	}
	kept := e.Schedule(time.Second, "kept", func(*Engine) { ran++ })
	if e.Cancel(ref) {
		t.Fatal("stale ref cancelled the event reusing its struct")
	}
	e.Run()
	if ran != 1 {
		t.Fatalf("kept event ran %d times, want 1", ran)
	}
	_ = kept
}

// TestRecycledEventReadsZero makes use-after-recycle observable: once an
// event fires or is cancelled, its pooled struct reads zero on every
// field but pos and gen, so a stale read of at, seq, arg or kind yields
// nothing plausible and the sim, golden and fingerprint tests fail.
func TestRecycledEventReadsZero(t *testing.T) {
	e := NewEngine()
	kind := e.RegisterKind(func(*Engine, Time, int64) {})
	for _, tc := range []struct {
		name string
		ref  func() EventRef
		end  func(EventRef)
	}{
		{"fired typed", func() EventRef { return e.ScheduleKind(e.Now()+time.Second, kind, 42) }, func(EventRef) { e.Run() }},
		{"fired closure", func() EventRef { return e.After(time.Second, "closure", func(*Engine) {}) }, func(EventRef) { e.Run() }},
		{"cancelled typed", func() EventRef { return e.ScheduleKind(e.Now()+time.Second, kind, 7) }, func(r EventRef) { e.Cancel(r) }},
	} {
		ref := tc.ref()
		tc.end(ref)
		ev := ref.ev
		if ev.at != 0 || ev.seq != 0 || ev.arg != 0 || ev.fn != nil || ev.name != "" || ev.kind != 0 ||
			ev.pos != -1 || ev.gen != ref.gen+1 {
			t.Errorf("%s: recycled event %+v, want zero but pos -1, gen %d", tc.name, *ev, ref.gen+1)
		}
	}
}

// TestCancelMiddleOfQueue removes events from interior heap positions
// and verifies the remaining order is untouched.
func TestCancelMiddleOfQueue(t *testing.T) {
	e := NewEngine()
	var order []int
	refs := make([]EventRef, 20)
	for i := 0; i < 20; i++ {
		i := i
		refs[i] = e.Schedule(Time(i)*time.Millisecond, "x", func(*Engine) { order = append(order, i) })
	}
	for _, i := range []int{3, 11, 4, 17, 0, 19} {
		if !e.Cancel(refs[i]) {
			t.Fatalf("Cancel of pending event %d returned false", i)
		}
	}
	e.Run()
	want := []int{1, 2, 5, 6, 7, 8, 9, 10, 12, 13, 14, 15, 16, 18}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestRunUntilExactTimestamp: a deadline equal to an event's timestamp
// executes that event (At <= deadline is inclusive) and leaves the
// clock there; the next RunUntil resumes cleanly.
func TestRunUntilExactTimestamp(t *testing.T) {
	e := NewEngine()
	var ran []Time
	for _, d := range []Time{1, 2, 2, 3} {
		e.Schedule(d*time.Second, "e", func(en *Engine) { ran = append(ran, en.Now()) })
	}
	if n := e.RunUntil(2 * time.Second); n != 3 {
		t.Fatalf("RunUntil(2s) executed %d events, want 3 (deadline inclusive)", n)
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("Now = %v, want 2s", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	// Deadline before the next event: no execution, clock stays put
	// (events remain, so the clock must not jump to the deadline).
	if n := e.RunUntil(2500 * time.Millisecond); n != 0 {
		t.Fatalf("RunUntil(2.5s) executed %d events, want 0", n)
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("Now = %v after empty RunUntil, want 2s", e.Now())
	}
	if n := e.RunUntil(3 * time.Second); n != 1 {
		t.Fatalf("RunUntil(3s) executed %d events, want 1", n)
	}
}

// TestStopMidBatchOfSimultaneousEvents: Stop inside one of several
// equal-timestamp events halts after the current event; the rest of the
// batch stays queued and a subsequent Run picks them up in FIFO order.
func TestStopMidBatchOfSimultaneousEvents(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(time.Second, "batch", func(en *Engine) {
			order = append(order, i)
			if i == 1 {
				en.Stop()
			}
		})
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
	for i, v := range order {
		if v != i {
			t.Fatalf("batch order = %v, want FIFO 0..4", order)
		}
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
