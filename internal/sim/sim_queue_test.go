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

// TestOrderingFingerprintAgainstReference drives the engine, a bare
// Queue with pointer payloads (the gateway's instantiation) and a
// container/heap reference with identical randomized scenarios — heavy
// timestamp collisions, follow-up entries pushed between pops — and
// requires the exact execution order (time and identity) to match. This
// is the ordering lock: (time, then push order, FIFO among equal
// timestamps) holds bit-for-bit on both instantiations.
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

		// Pointer-payload execution: each value carries its own time, which
		// must come back with it.
		nextID = initial
		var popped []fired
		var pq Queue[*fired]
		for i := 0; i < initial; i++ {
			pq.Push(delays[i], &fired{delays[i], i})
		}
		for pq.Len() > 0 {
			at, f := pq.Pop()
			if at != f.at {
				t.Fatalf("trial %d: Queue popped %+v at %v", trial, *f, at)
			}
			popped = append(popped, *f)
			if f.id < initial {
				for _, d := range children[f.id] {
					pq.Push(at+d, &fired{at + d, nextID})
					nextID++
				}
			}
		}

		for name, run := range map[string][]fired{"engine": got, "Queue[*T]": popped} {
			if len(run) != len(want) {
				t.Fatalf("trial %d: %s fired %d events, reference %d", trial, name, len(run), len(want))
			}
			for i := range run {
				if run[i] != want[i] {
					t.Fatalf("trial %d: divergence at step %d: %s %+v, reference %+v",
						trial, i, name, run[i], want[i])
				}
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
// schedule/fire cycle must not allocate — events are stored by value in
// the queue's already-grown slice.
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
