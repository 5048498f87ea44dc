// Package sim provides a small deterministic discrete-event simulation
// engine: a virtual clock over Queue, a min-heap of timestamped values
// ordered by (time, push order). Simultaneous entries come out first in,
// first out, which keeps every experiment in this repository
// reproducible bit-for-bit; it is also the one retirement order the
// simulator's Engine and the gateway's completion queues share
// (DESIGN.md §10, §15).
//
// Events are typed (DESIGN.md §10): each carries only an EventKind and
// an int64 payload and dispatches through a handler table registered
// once per engine (RegisterKind, ScheduleKind). No closure is allocated
// per event and no name string is built unless an observer formats one.
// Entries are stored by value, so a steady-state schedule/fire cycle
// allocates nothing once the queue's slice has grown.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, measured as a duration since the start
// of the simulation. Using time.Duration keeps arithmetic readable
// (ms, seconds) without tying the simulator to the wall clock.
type Time = time.Duration

// Queue is a min-heap of values of type T ordered by time, ties broken
// by push order. The zero value is an empty queue. A popped slot is
// zeroed, so the queue never retains a value it has handed back.
type Queue[T any] struct {
	h   []entry[T] // implicit 4-ary min-heap ordered by (at, seq)
	seq int64      // push counter: the tie-break
}

type entry[T any] struct {
	at  Time
	seq int64
	v   T
}

func (a *entry[T]) before(b *entry[T]) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Len returns the number of queued values.
func (q *Queue[T]) Len() int { return len(q.h) }

// Next returns the earliest queued time. The queue must not be empty.
func (q *Queue[T]) Next() Time { return q.h[0].at }

// Push queues v at time at, after every value already queued at at.
func (q *Queue[T]) Push(at Time, v T) {
	x := entry[T]{at: at, seq: q.seq, v: v}
	q.seq++
	q.h = append(q.h, x)
	h, i := q.h, len(q.h)-1
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// Pop removes and returns the earliest value and its time. The queue
// must not be empty.
//
// A 4-ary layout halves the tree depth of a binary heap; sifting down
// compares up to four children per level but they are adjacent in the
// backing slice, so the extra comparisons hit the same cache lines.
func (q *Queue[T]) Pop() (Time, T) {
	h := q.h
	top := h[0]
	n := len(h) - 1
	x := h[n] // the last entry sifts down from the root
	h[n] = entry[T]{}
	h = h[:n]
	q.h = h
	if n == 0 {
		return top.at, top.v
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		m := first
		last := min(first+4, n)
		for c := first + 1; c < last; c++ {
			if h[c].before(&h[m]) {
				m = c
			}
		}
		if !h[m].before(&x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
	return top.at, top.v
}

// EventKind identifies a typed-event handler registered with
// RegisterKind.
type EventKind uint8

// Handler executes one typed event. It receives the engine (so it can
// schedule follow-up events), the firing time and the event's payload.
type Handler func(e *Engine, at Time, arg int64)

// event is one queued engine event.
type event struct {
	arg  int64 // handler payload
	kind EventKind
}

// Engine runs events in virtual-time order.
type Engine struct {
	now     Time
	queue   Queue[event]
	steps   int64
	stopped bool

	handlers []Handler // typed-event dispatch table, indexed by kind

	// OnEvent, when non-nil, observes every executed event just before
	// its handler runs. It is the engine-level tracing hook; the engine
	// itself stays dependency-free. Observers that want a display name
	// format it themselves from (kind, arg), so unobserved runs never pay
	// for name construction. A nil hook costs one branch per event.
	OnEvent func(at Time, kind EventKind, arg int64)

	// AfterEvent, when non-nil, observes every executed event just after
	// its handler returns. Together with OnEvent it brackets a dispatch,
	// which is how the phase profiler times event dispatch without the
	// engine importing anything. A nil hook costs one branch per event.
	AfterEvent func(at Time, kind EventKind, arg int64)
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() int64 { return e.steps }

// Pending returns the number of events still queued.
func (e *Engine) Pending() int { return e.queue.Len() }

// RegisterKind adds a typed-event handler and returns its kind. Kinds
// are engine-local; an EventKind from one engine means nothing to
// another. Registration is meant for setup time, not hot loops.
func (e *Engine) RegisterKind(h Handler) EventKind {
	if h == nil {
		panic("sim: RegisterKind with nil handler")
	}
	if len(e.handlers) > 255 {
		panic("sim: too many event kinds")
	}
	e.handlers = append(e.handlers, h)
	return EventKind(len(e.handlers) - 1)
}

// ScheduleKind enqueues an event: at time at, the handler registered for
// kind runs with payload arg. Scheduling in the past (before Now) panics:
// it is always a logic error in a DES and silently reordering the past
// would corrupt results. Steady-state ScheduleKind/fire cycles are
// allocation-free.
func (e *Engine) ScheduleKind(at Time, kind EventKind, arg int64) {
	if int(kind) >= len(e.handlers) {
		panic(fmt.Sprintf("sim: unregistered event kind %d", kind))
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule kind %d at %v before now %v", kind, at, e.now))
	}
	e.queue.Push(at, event{arg: arg, kind: kind})
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in order until the queue drains or Stop is called.
// It returns the number of events executed by this call. The clock is left
// at the time of the last executed event.
func (e *Engine) Run() int64 {
	e.stopped = false
	var n int64
	for e.queue.Len() > 0 && !e.stopped {
		e.dispatch()
		n++
	}
	return n
}

// RunUntil executes the events due strictly before deadline, then
// advances the clock to deadline (unless Stop was called). An event at
// deadline itself stays queued, so it runs after whatever the caller
// does at that instant. It returns the number of events executed.
func (e *Engine) RunUntil(deadline Time) int64 {
	e.stopped = false
	var n int64
	for e.queue.Len() > 0 && !e.stopped && e.queue.Next() < deadline {
		e.dispatch()
		n++
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
	return n
}

// Step executes exactly one event if available and reports whether it did.
func (e *Engine) Step() bool {
	if e.queue.Len() == 0 {
		return false
	}
	e.dispatch()
	return true
}

// dispatch pops the earliest event, advances the clock to it and runs
// the observer hooks around its handler.
func (e *Engine) dispatch() {
	at, ev := e.queue.Pop()
	e.now = at
	e.steps++
	if e.OnEvent != nil {
		e.OnEvent(at, ev.kind, ev.arg)
	}
	e.handlers[ev.kind](e, at, ev.arg)
	if e.AfterEvent != nil {
		e.AfterEvent(at, ev.kind, ev.arg)
	}
}
