package sim

import (
	"testing"
	"testing/quick"
	"time"
)

// drain pops every queued value in order.
func drain(q *Queue[int64]) []int64 {
	var out []int64
	for q.Len() > 0 {
		_, v := q.Pop()
		out = append(out, v)
	}
	return out
}

func equalLog(got []int64, want ...int64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestRunExecutesInTimeOrder(t *testing.T) {
	var q Queue[int64]
	q.Push(30*time.Millisecond, 3)
	q.Push(10*time.Millisecond, 1)
	q.Push(20*time.Millisecond, 2)
	if q.Next() != 10*time.Millisecond {
		t.Fatalf("Next = %v, want 10ms", q.Next())
	}
	if order := drain(&q); !equalLog(order, 1, 2, 3) {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	var q Queue[int64]
	for i := int64(0); i < 10; i++ {
		q.Push(time.Second, i)
	}
	if order := drain(&q); !equalLog(order, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9) {
		t.Fatalf("simultaneous entries came out of push order: %v", order)
	}
}

// TestEventsCanScheduleEvents: a value pushed between pops, at an
// instant already queued, comes out after the values queued there
// before it.
func TestEventsCanScheduleEvents(t *testing.T) {
	var q Queue[int64]
	q.Push(time.Second, 0)
	q.Push(1500*time.Millisecond, 1)
	var fired []time.Duration
	var ids []int64
	for q.Len() > 0 {
		at, v := q.Pop()
		fired = append(fired, at)
		ids = append(ids, v)
		if v == 0 {
			q.Push(at+500*time.Millisecond, 2)
		}
	}
	if len(fired) != 3 || fired[0] != time.Second || fired[1] != 1500*time.Millisecond || fired[2] != 1500*time.Millisecond {
		t.Fatalf("fired = %v", fired)
	}
	if !equalLog(ids, 0, 1, 2) {
		t.Fatalf("ids = %v, want [0 1 2]", ids)
	}
}

// Property: for any set of (time, id) pairs, Pop visits them sorted by
// time with ties broken by push order.
func TestPropertyOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) > 200 {
			delays = delays[:200]
		}
		var q Queue[int64]
		for i, d := range delays {
			q.Push(time.Duration(d)*time.Millisecond, int64(i))
		}
		type rec struct {
			at  time.Duration
			seq int64
		}
		var got []rec
		for q.Len() > 0 {
			at, v := q.Pop()
			got = append(got, rec{at, v})
		}
		if len(got) != len(delays) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
