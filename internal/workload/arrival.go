package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"time"
)

// Poisson produces arrivals of a homogeneous Poisson process with the
// given rate (events per second): exponential inter-arrival gaps.
type Poisson struct {
	Rate float64 // events per second; must be > 0
	Rng  *rand.Rand
}

func (p Poisson) Name() string { return fmt.Sprintf("poisson(λ=%.2g/s)", p.Rate) }

// Times returns n arrival times drawn from the process.
func (p Poisson) Times(n int) []time.Duration {
	if p.Rate <= 0 {
		panic(fmt.Sprintf("workload: Poisson rate must be positive, got %v", p.Rate))
	}
	out := make([]time.Duration, n)
	var t float64 // seconds
	for i := 0; i < n; i++ {
		t += p.Rng.ExpFloat64() / p.Rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// Uniform produces evenly spaced arrivals over a fixed window: the
// "Uniform" trace of Section V (50 invocations per minute, evenly).
type Uniform struct {
	Window time.Duration // total span of the n arrivals
}

func (u Uniform) Name() string { return "uniform" }

// Times spreads n arrivals evenly over the window, starting at the first
// gap boundary (so arrival i = (i+1) * window/n, keeping the last arrival
// inside the window).
func (u Uniform) Times(n int) []time.Duration {
	out := make([]time.Duration, n)
	if n == 0 {
		return out
	}
	gap := u.Window / time.Duration(n)
	for i := range out {
		out[i] = time.Duration(i+1) * gap
	}
	return out
}

// Peak alternates between high-rate and low-rate one-minute periods (the
// "Peak" trace: 80 and 20 invocations per minute, evenly spread within
// each period).
type Peak struct {
	Period   time.Duration // length of each high/low phase (paper: 1 minute)
	HighPerP int           // invocations per high period (paper: 80)
	LowPerP  int           // invocations per low period (paper: 20)
}

func (p Peak) Name() string { return "peak" }

// Times emits arrivals phase by phase, starting with a high phase, until n
// invocations have been produced.
func (p Peak) Times(n int) []time.Duration {
	out := make([]time.Duration, 0, n)
	var base time.Duration
	high := true
	for len(out) < n {
		count := p.HighPerP
		if !high {
			count = p.LowPerP
		}
		if count > 0 {
			gap := p.Period / time.Duration(count)
			for i := 0; i < count && len(out) < n; i++ {
				out = append(out, base+time.Duration(i+1)*gap)
			}
		}
		base += p.Period
		high = !high
	}
	return out
}

// PoissonWindow produces Poisson arrivals at a fixed average rate but
// clipped to a window (the "Random" trace: 50 invocations per minute with
// Poisson-distributed arrival times within each minute). Arrivals are n
// uniform draws over the window, sorted — the order statistics of a
// conditioned Poisson process.
type PoissonWindow struct {
	Window time.Duration
	Rng    *rand.Rand
}

func (p PoissonWindow) Name() string { return "random" }

// Times draws n arrival instants uniformly in (0, Window] and sorts them,
// which is exactly the distribution of a Poisson process conditioned on n
// events in the window.
func (p PoissonWindow) Times(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(p.Rng.Float64() * float64(p.Window))
	}
	slices.Sort(out)
	return out
}

// Merge combines several per-function arrival streams into one workload,
// ordering invocations globally by arrival time. Streams need not be
// sorted. Ties keep input order: equal instants of different streams
// follow the order of streams, equal instants within a stream its
// order. Functions lists each function ID once, at its first stream.
// Exec jitter of ±jitter (fraction of the mean, e.g. 0.1) is applied per
// invocation using rng, drawn in arrival order; pass jitter = 0 for
// deterministic execution times.
func Merge(name string, streams []Stream, jitter float64, rng *rand.Rand) Workload {
	n := 0
	for _, s := range streams {
		n += len(s.Times)
	}
	keys := make([]Arrival, 0, n)
	fns := make([]*Function, 0, len(streams))
	seen := make(map[int]bool, len(streams))
	for i, s := range streams {
		if !seen[s.Fn.ID] {
			seen[s.Fn.ID] = true
			fns = append(fns, s.Fn)
		}
		for _, at := range s.Times {
			keys = append(keys, Arrival{At: at, Of: i})
		}
	}
	SortArrivals(keys)
	invs := make([]Invocation, n)
	for i, k := range keys {
		fn := streams[k.Of].Fn
		exec := fn.Exec
		if jitter > 0 && rng != nil {
			f := 1 + (rng.Float64()*2-1)*jitter
			exec = time.Duration(float64(exec) * f)
		}
		invs[i] = Invocation{Seq: i, Fn: fn, Arrival: k.At, Exec: exec}
	}
	return Workload{Name: name, Functions: fns, Invocations: invs}
}

// Stream is one function's arrival times before merging.
type Stream struct {
	Fn    *Function
	Times []time.Duration
}

// RoundRobinSplit divides a total invocation count across k functions as
// evenly as possible, assigning the remainder to the earliest functions.
func RoundRobinSplit(total, k int) []int {
	if k <= 0 {
		return nil
	}
	out := make([]int, k)
	for i := range out {
		out[i] = total / k
		if i < total%k {
			out[i]++
		}
	}
	return out
}

// RateEMA tracks an exponential moving average of arrival rate, used by
// the DRL featurizer to summarize recent workload intensity.
type RateEMA struct {
	Alpha float64 // smoothing factor in (0,1]
	rate  float64 // events per second
	last  time.Duration
	init  bool
}

// Observe records an arrival at time t and updates the EMA.
func (r *RateEMA) Observe(t time.Duration) {
	if !r.init {
		r.init = true
		r.last = t
		return
	}
	gap := (t - r.last).Seconds()
	r.last = t
	if gap <= 0 {
		return
	}
	inst := 1 / gap
	if r.rate == 0 {
		r.rate = inst
		return
	}
	r.rate = r.Alpha*inst + (1-r.Alpha)*r.rate
}

// Rate returns the current smoothed arrival rate in events per second.
func (r *RateEMA) Rate() float64 { return r.rate }
