package drl

import (
	"math/rand"

	"mlcr/internal/nn"
)

// Transition is one experience tuple (s_t, a_t, r_t, s_{t+1}) of
// Algorithm 1, plus the action mask of the next state (needed to compute
// the masked max over next-state Q-values) and a terminal flag.
type Transition struct {
	State    *nn.Tensor
	Action   int
	Reward   float64
	Next     *nn.Tensor
	NextMask []bool
	Done     bool
}

// Replay is a fixed-capacity circular experience buffer. The paper notes
// the pool "can be circularly utilized in multiple rounds": old
// experiences are overwritten once capacity is reached.
type Replay struct {
	buf  []Transition
	next int
	full bool
}

// NewReplay creates a buffer with the given capacity.
func NewReplay(capacity int) *Replay {
	if capacity <= 0 {
		panic("drl: replay capacity must be positive")
	}
	return &Replay{buf: make([]Transition, 0, capacity)}
}

// Len returns the number of stored transitions.
func (r *Replay) Len() int {
	if r.full {
		return cap(r.buf)
	}
	return len(r.buf)
}

// Cap returns the buffer capacity.
func (r *Replay) Cap() int { return cap(r.buf) }

// Add stores a transition, overwriting the oldest once full, and
// returns the slot it wrote.
func (r *Replay) Add(t Transition) int {
	if r.full {
		slot := r.next
		r.buf[slot] = t
		r.next = (r.next + 1) % cap(r.buf)
		return slot
	}
	r.buf = append(r.buf, t)
	if len(r.buf) == cap(r.buf) {
		r.full = true
		r.next = 0
	}
	return len(r.buf) - 1
}

// At returns the transition stored in slot i, one of the slots
// SampleSlots draws.
func (r *Replay) At(i int) Transition { return r.buf[i] }

// SampleSlots draws n slots uniformly with replacement into dst (reused
// when its capacity suffices) and returns it. Each draw is one
// rng.Intn(Len()). It panics on an empty buffer.
func (r *Replay) SampleSlots(dst []int, n int, rng *rand.Rand) []int {
	if r.Len() == 0 {
		panic("drl: sampling from empty replay buffer")
	}
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, rng.Intn(r.Len()))
	}
	return dst
}
