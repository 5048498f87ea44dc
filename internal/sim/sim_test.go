package sim

import (
	"testing"
	"testing/quick"
	"time"
)

// logKind registers a handler that appends each fired event's payload to
// *log and returns its kind.
func logKind(e *Engine, log *[]int64) EventKind {
	return e.RegisterKind(func(_ *Engine, _ Time, arg int64) { *log = append(*log, arg) })
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
	e := NewEngine()
	var order []int64
	k := logKind(e, &order)
	e.ScheduleKind(30*time.Millisecond, k, 3)
	e.ScheduleKind(10*time.Millisecond, k, 1)
	e.ScheduleKind(20*time.Millisecond, k, 2)
	if n := e.Run(); n != 3 {
		t.Fatalf("Run executed %d events, want 3", n)
	}
	if !equalLog(order, 1, 2, 3) {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if e.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v, want 30ms", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int64
	k := logKind(e, &order)
	for i := int64(0); i < 10; i++ {
		e.ScheduleKind(time.Second, k, i)
	}
	e.Run()
	if !equalLog(order, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9) {
		t.Fatalf("simultaneous events ran out of submission order: %v", order)
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	e := NewEngine()
	var fired []time.Duration
	var k EventKind
	k = e.RegisterKind(func(en *Engine, at Time, arg int64) {
		fired = append(fired, en.Now())
		if arg == 0 {
			en.ScheduleKind(at+500*time.Millisecond, k, 1)
		}
	})
	e.ScheduleKind(time.Second, k, 0)
	e.Run()
	if len(fired) != 2 || fired[0] != time.Second || fired[1] != 1500*time.Millisecond {
		t.Fatalf("fired = %v", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	var log []int64
	k := logKind(e, &log)
	e.ScheduleKind(time.Second, k, 0)
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.ScheduleKind(500*time.Millisecond, k, 1)
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var ran []int64
	k := logKind(e, &ran)
	for _, d := range []int64{1, 2, 3, 4} {
		e.ScheduleKind(Time(d)*time.Second, k, d)
	}
	// Strict: the event at the deadline itself stays queued.
	if n := e.RunUntil(2 * time.Second); n != 1 {
		t.Fatalf("RunUntil executed %d, want 1", n)
	}
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", e.Pending())
	}
	if n := e.Run(); n != 3 {
		t.Fatalf("second Run executed %d, want 3", n)
	}
	if !equalLog(ran, 1, 2, 3, 4) {
		t.Fatalf("ran = %v", ran)
	}
}

func TestRunUntilAdvancesClockOnEmptyQueue(t *testing.T) {
	e := NewEngine()
	e.RunUntil(5 * time.Second)
	if e.Now() != 5*time.Second {
		t.Fatalf("Now = %v, want 5s", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	k := e.RegisterKind(func(en *Engine, _ Time, _ int64) {
		count++
		if count == 2 {
			en.Stop()
		}
	})
	for i := 1; i <= 5; i++ {
		e.ScheduleKind(time.Duration(i)*time.Second, k, 0)
	}
	if n := e.Run(); n != 2 {
		t.Fatalf("Run executed %d events after Stop, want 2", n)
	}
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", e.Pending())
	}
}

func TestStep(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
	var log []int64
	e.ScheduleKind(time.Second, logKind(e, &log), 0)
	if !e.Step() {
		t.Fatal("Step returned false with pending event")
	}
	if e.Steps() != 1 {
		t.Fatalf("Steps = %d, want 1", e.Steps())
	}
}

// Property: for any set of (time, id) pairs, Run visits them sorted by
// time with ties broken by insertion order.
func TestPropertyOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) > 200 {
			delays = delays[:200]
		}
		e := NewEngine()
		type rec struct {
			at  time.Duration
			seq int64
		}
		var got []rec
		k := e.RegisterKind(func(en *Engine, _ Time, arg int64) { got = append(got, rec{en.Now(), arg}) })
		for i, d := range delays {
			e.ScheduleKind(time.Duration(d)*time.Millisecond, k, int64(i))
		}
		e.Run()
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

// TestEventHooksBracketDispatch: OnEvent fires before the handler,
// AfterEvent after it, for every kind — the bracketing contract the
// phase profiler relies on.
func TestEventHooksBracketDispatch(t *testing.T) {
	e := NewEngine()
	var order []string
	e.OnEvent = func(at Time, kind EventKind, arg int64) {
		order = append(order, "on")
	}
	e.AfterEvent = func(at Time, kind EventKind, arg int64) {
		order = append(order, "after")
	}
	a := e.RegisterKind(func(*Engine, Time, int64) { order = append(order, "a") })
	b := e.RegisterKind(func(*Engine, Time, int64) { order = append(order, "b") })
	e.ScheduleKind(1, a, 0)
	e.ScheduleKind(2, b, 42)
	e.Run()
	want := []string{"on", "a", "after", "on", "b", "after"}
	if len(order) != len(want) {
		t.Fatalf("hook order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("hook order %v, want %v", order, want)
		}
	}
}

// TestAfterEventSeesFollowupSchedules: AfterEvent runs after the
// handler, so events the handler scheduled are already queued.
func TestAfterEventSeesFollowupSchedules(t *testing.T) {
	e := NewEngine()
	pending := -1
	e.AfterEvent = func(at Time, kind EventKind, arg int64) {
		if pending == -1 {
			pending = e.Pending()
		}
	}
	var k EventKind
	k = e.RegisterKind(func(en *Engine, _ Time, arg int64) {
		if arg == 0 {
			en.ScheduleKind(5, k, 1)
		}
	})
	e.ScheduleKind(1, k, 0)
	e.Run()
	if pending != 1 {
		t.Fatalf("AfterEvent saw %d pending events after parent, want 1 (the child)", pending)
	}
}
