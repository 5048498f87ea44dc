// Package sim holds the simulator's virtual time and Queue, a min-heap
// of timestamped values ordered by (time, push order). Simultaneous
// entries come out first in, first out, which keeps every experiment in
// this repository reproducible bit-for-bit; it is also the retirement
// order of the platform's completion loop, which the simulator and every
// gateway shard share (DESIGN.md §10, §15). Entries are stored by
// value, so a steady-state push/pop cycle allocates nothing once the
// queue's slice has grown.
package sim

import "time"

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
