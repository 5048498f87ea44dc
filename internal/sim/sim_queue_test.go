package sim

import (
	"container/heap"
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

// TestOrderingFingerprintAgainstReference drives a Queue with pointer
// payloads (the gateway's instantiation) and a container/heap reference
// with identical randomized scenarios — heavy timestamp collisions,
// follow-up entries pushed between pops — and requires the exact pop
// order (time and identity) to match. This is the ordering lock: (time,
// then push order, FIFO among equal timestamps) holds bit-for-bit.
func TestOrderingFingerprintAgainstReference(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		const initial = 200
		// Pre-generate the scenario so both executions see identical
		// input: initial timestamps plus, per initial entry, follow-up
		// delays; follow-up entries push nothing themselves.
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
		// Reference execution.
		nextID := initial
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

		if len(popped) != len(want) {
			t.Fatalf("trial %d: Queue[*T] popped %d entries, reference %d", trial, len(popped), len(want))
		}
		for i := range popped {
			if popped[i] != want[i] {
				t.Fatalf("trial %d: divergence at step %d: Queue[*T] %+v, reference %+v",
					trial, i, popped[i], want[i])
			}
		}
	}
}

// TestSteadyStateScheduleFireAllocationFree: after warm-up, a push/pop
// cycle must not allocate — entries are stored by value in the queue's
// already-grown slice.
func TestSteadyStateScheduleFireAllocationFree(t *testing.T) {
	var q Queue[int64]
	var now Time
	for i := 0; i < 100; i++ {
		q.Push(now+time.Millisecond, int64(i))
		now, _ = q.Pop()
	}
	avg := testing.AllocsPerRun(1000, func() {
		q.Push(now+time.Millisecond, 1)
		now, _ = q.Pop()
	})
	if avg != 0 {
		t.Errorf("steady-state push/pop allocates %.2f per cycle, want 0", avg)
	}
}

func BenchmarkQueueChurn(b *testing.B) {
	// 1024 queued entries at all times: each pop pushes a replacement,
	// exercising heap sift depth at a realistic queue size.
	var q Queue[int64]
	for i := 0; i < 1024; i++ {
		q.Push(Time(i%13)*time.Millisecond, int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at, v := q.Pop()
		q.Push(at+Time(1+v%7)*time.Millisecond, v)
	}
}
