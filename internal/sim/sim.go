// Package sim provides a small deterministic discrete-event simulation
// engine: a virtual clock and a priority queue of timestamped events.
//
// The engine is intentionally minimal. Events are ordered by (time,
// sequence); the sequence number makes ordering of simultaneous events
// deterministic (FIFO among equal timestamps), which keeps every
// experiment in this repository reproducible bit-for-bit.
//
// Two event flavours share the queue (DESIGN.md §10):
//
//   - Closure events (Schedule, After) carry an arbitrary callback and a
//     static name. They are the convenient general-purpose path.
//   - Typed events (RegisterKind, ScheduleKind) carry only an EventKind
//     and an int64 payload and dispatch through a handler table
//     registered once per engine. They exist for trace-scale hot loops:
//     no closure is allocated per event and no name string is built
//     unless an observer is attached.
//
// Event structs are pooled on an internal free list and recycled as soon
// as they fire or are cancelled, so a steady-state schedule/fire cycle
// allocates nothing. Cancellation handles (EventRef) carry a generation
// counter so a stale handle to a recycled event can never cancel — or
// resurrect — the event that now occupies the same struct.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, measured as a duration since the start
// of the simulation. Using time.Duration keeps arithmetic readable
// (ms, seconds) without tying the simulator to the wall clock.
type Time = time.Duration

// EventKind identifies a typed-event handler registered with
// RegisterKind. Kind 0 (KindFunc) is reserved for closure events.
type EventKind uint8

// KindFunc is the kind of closure events created by Schedule and After.
const KindFunc EventKind = 0

// Handler executes one typed event. It receives the engine (so it can
// schedule follow-up events), the firing time and the event's payload.
type Handler func(e *Engine, at Time, arg int64)

// Event is a pooled queue slot. It is engine-owned: callers hold
// EventRef handles, never *Event, because the struct is recycled the
// moment the event fires or is cancelled.
type Event struct {
	at   Time
	seq  int64 // tie-break for deterministic ordering
	arg  int64 // typed-event payload
	fn   func(*Engine)
	name string // static label of closure events ("" for typed)
	pos  int32  // heap index; -1 while not queued
	gen  uint32 // recycle generation (ABA guard for EventRef)
	kind EventKind
}

// EventRef is a cancellation handle for a scheduled event. The zero
// value is a null handle (Cancel returns false). A ref becomes stale —
// permanently — once its event fires, is cancelled, or the underlying
// pooled struct is recycled for a newer event; the generation check
// makes every stale use a no-op rather than an ABA bug.
type EventRef struct {
	ev  *Event
	gen uint32
}

// Scheduled reports whether the referenced event is still queued.
func (r EventRef) Scheduled() bool {
	return r.ev != nil && r.ev.gen == r.gen && r.ev.pos >= 0
}

// eventSlab is how many Event structs the pool allocates at once when
// the free list runs dry; slab allocation keeps the amortized
// allocation count per scheduled event near zero even for runs that
// never recycle (e.g. bulk pre-scheduling).
const eventSlab = 64

// Engine runs events in virtual-time order.
type Engine struct {
	now     Time
	heap    []*Event // implicit 4-ary min-heap ordered by (at, seq)
	nextSeq int64
	steps   int64
	stopped bool

	handlers []Handler // typed-event dispatch table; [KindFunc] unused
	free     []*Event  // recycled Event structs

	// OnEvent, when non-nil, observes every executed event just before
	// its callback or handler runs. It is the engine-level tracing hook;
	// the engine itself stays dependency-free. name is the static label
	// of closure events and "" for typed events — observers that want a
	// display name for a typed event format it themselves from (kind,
	// arg), so unobserved runs never pay for name construction. A nil
	// hook costs one branch per event.
	OnEvent func(at Time, kind EventKind, arg int64, name string)

	// AfterEvent, when non-nil, observes every executed event just after
	// its callback or handler returns. Together with OnEvent it brackets
	// a dispatch, which is how the phase profiler times event dispatch
	// without the engine importing anything. A nil hook costs one branch
	// per event.
	AfterEvent func(at Time, kind EventKind, arg int64)
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{handlers: make([]Handler, 1)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() int64 { return e.steps }

// Pending returns the number of events still queued.
func (e *Engine) Pending() int { return len(e.heap) }

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

// Schedule enqueues fn to run at absolute virtual time at. Scheduling in
// the past (before Now) panics: it is always a logic error in a DES and
// silently reordering the past would corrupt results. The name is a
// static label for tracing and tests; it is stored, never formatted.
func (e *Engine) Schedule(at Time, name string, fn func(*Engine)) EventRef {
	if fn == nil {
		panic("sim: Schedule with nil callback")
	}
	seq := e.nextSeq
	e.nextSeq++
	return e.schedule(at, KindFunc, 0, name, fn, seq)
}

// After enqueues fn to run d after the current time.
func (e *Engine) After(d Time, name string, fn func(*Engine)) EventRef {
	return e.Schedule(e.now+d, name, fn)
}

// ScheduleKind enqueues a typed event: at time at, the handler
// registered for kind runs with payload arg. No closure and no name are
// allocated; steady-state ScheduleKind/fire cycles are allocation-free.
func (e *Engine) ScheduleKind(at Time, kind EventKind, arg int64) EventRef {
	e.checkKind(kind)
	seq := e.nextSeq
	e.nextSeq++
	return e.schedule(at, kind, arg, "", nil, seq)
}

// ReserveSeqs pre-allocates n consecutive sequence numbers and returns
// the first. Combined with ScheduleKindSeq it lets a caller replay a
// pre-ordered stream (e.g. a workload's arrivals) lazily — one event in
// the queue at a time instead of all up front — while keeping exactly
// the tie-break order bulk scheduling would have produced: the reserved
// block orders before every seq handed out after the reservation.
func (e *Engine) ReserveSeqs(n int64) int64 {
	if n < 0 {
		panic(fmt.Sprintf("sim: ReserveSeqs(%d)", n))
	}
	base := e.nextSeq
	e.nextSeq += n
	return base
}

// ScheduleKindSeq is ScheduleKind with an explicit sequence number
// previously obtained from ReserveSeqs. Each reserved seq must be used
// at most once; the ordering of simultaneous events is undefined
// otherwise. Scheduling with an unreserved seq panics.
func (e *Engine) ScheduleKindSeq(at Time, kind EventKind, arg int64, seq int64) EventRef {
	e.checkKind(kind)
	if seq >= e.nextSeq {
		panic(fmt.Sprintf("sim: ScheduleKindSeq with unreserved seq %d (next %d)", seq, e.nextSeq))
	}
	return e.schedule(at, kind, arg, "", nil, seq)
}

func (e *Engine) checkKind(kind EventKind) {
	if kind == KindFunc || int(kind) >= len(e.handlers) {
		panic(fmt.Sprintf("sim: unregistered event kind %d", kind))
	}
}

func (e *Engine) schedule(at Time, kind EventKind, arg int64, name string, fn func(*Engine), seq int64) EventRef {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule %q at %v before now %v", name, at, e.now))
	}
	ev := e.alloc()
	ev.at = at
	ev.seq = seq
	ev.arg = arg
	ev.fn = fn
	ev.name = name
	ev.kind = kind
	e.heapPush(ev)
	return EventRef{ev: ev, gen: ev.gen}
}

// Cancel removes a previously scheduled event. It returns false if the
// event already ran, was cancelled, or the handle is stale (its pooled
// struct was recycled for a newer event — the generation check).
func (e *Engine) Cancel(ref EventRef) bool {
	ev := ref.ev
	if ev == nil || ev.gen != ref.gen || ev.pos < 0 {
		return false
	}
	e.heapRemove(int(ev.pos))
	e.recycle(ev)
	return true
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in order until the queue drains or Stop is called.
// It returns the number of events executed by this call. The clock is left
// at the time of the last executed event.
func (e *Engine) Run() int64 {
	return e.run(1<<62-1, false)
}

// RunUntil executes events with At <= deadline, advancing the clock. The
// clock is left at the time of the last executed event (or deadline if no
// event at deadline remains, so repeated calls make progress).
func (e *Engine) RunUntil(deadline Time) int64 {
	return e.run(deadline, true)
}

func (e *Engine) run(deadline Time, advance bool) int64 {
	e.stopped = false
	var n int64
	for len(e.heap) > 0 && !e.stopped {
		if e.heap[0].at > deadline {
			break
		}
		e.dispatch(e.heapPop())
		n++
	}
	if advance && e.now < deadline && len(e.heap) == 0 {
		e.now = deadline
	}
	return n
}

// Step executes exactly one event if available and reports whether it did.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	e.dispatch(e.heapPop())
	return true
}

// dispatch advances the clock to the event, recycles its struct (the
// fields are copied out first, so the handler may immediately reuse it
// for follow-up events) and runs the observer hook and the callback.
func (e *Engine) dispatch(ev *Event) {
	at, kind, arg := ev.at, ev.kind, ev.arg
	name, fn := ev.name, ev.fn
	e.recycle(ev)
	e.now = at
	e.steps++
	if e.OnEvent != nil {
		e.OnEvent(at, kind, arg, name)
	}
	if kind == KindFunc {
		fn(e)
	} else {
		e.handlers[kind](e, at, arg)
	}
	if e.AfterEvent != nil {
		e.AfterEvent(at, kind, arg)
	}
}

// alloc pops the free list, refilling it a slab at a time.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	slab := make([]Event, eventSlab)
	for i := 1; i < len(slab); i++ {
		slab[i].pos = -1
		e.free = append(e.free, &slab[i])
	}
	return &slab[0]
}

// recycle zeroes an event (so the pool retains no closures, and a read
// after recycle sees zeros instead of plausible stale values) and bumps
// its generation, invalidating every outstanding EventRef to it, before
// returning it to the free list.
func (e *Engine) recycle(ev *Event) {
	*ev = Event{pos: -1, gen: ev.gen + 1}
	e.free = append(e.free, ev)
}

// --- implicit 4-ary min-heap ordered by (at, seq) ---
//
// A 4-ary layout halves the tree depth of a binary heap; sift-down
// compares up to four children per level but they are adjacent in the
// backing slice, so the extra comparisons hit the same cache lines.
// There is no interface boxing: push and pop move *Event values
// directly, maintaining each event's pos for O(log n) cancellation.

func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) heapPush(ev *Event) {
	e.heap = append(e.heap, ev)
	ev.pos = int32(len(e.heap) - 1)
	e.siftUp(len(e.heap) - 1)
}

// heapPop removes and returns the minimum event.
func (e *Engine) heapPop() *Event {
	h := e.heap
	min := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	e.heap = h[:n]
	if n > 0 {
		h[0] = last
		last.pos = 0
		e.siftDown(0)
	}
	min.pos = -1
	return min
}

// heapRemove deletes the event at index i, restoring heap order.
func (e *Engine) heapRemove(i int) {
	h := e.heap
	n := len(h) - 1
	ev := h[i]
	last := h[n]
	h[n] = nil
	e.heap = h[:n]
	if i < n {
		h[i] = last
		last.pos = int32(i)
		if i > 0 && eventLess(last, h[(i-1)/4]) {
			e.siftUp(i)
		} else {
			e.siftDown(i)
		}
	}
	ev.pos = -1
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(ev, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].pos = int32(i)
		i = p
	}
	h[i] = ev
	ev.pos = int32(i)
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	ev := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		m := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventLess(h[c], h[m]) {
				m = c
			}
		}
		if !eventLess(h[m], ev) {
			break
		}
		h[i] = h[m]
		h[i].pos = int32(i)
		i = m
	}
	h[i] = ev
	ev.pos = int32(i)
}
