// Package runner is the repository's parallel run harness: a
// deterministic bounded-parallel Map that fans independent jobs out
// across worker goroutines and returns their results in index order,
// the Fingerprint that compares two platform results bit for bit, and
// the Guard that refuses a scheduler instance shared between runs.
// experiments.RunAll and experiments.Sweep are its platform and
// cluster sweeps.
//
// # Determinism contract
//
// Map produces output bit-identical to sequential execution at any
// parallelism, provided every job is self-contained:
//
//   - Mutable per-run state — the platform, pool, scheduler, evictor
//     and observer — is built inside the worker goroutine executing
//     the job and never shared between jobs. A sweep claims each
//     scheduler it builds with a Guard, which panics when two runs
//     receive the same instance.
//   - Read-only inputs — workload.Workload, its *workload.Function
//     values and their image data — may be shared freely across
//     concurrent runs; nothing in the simulator writes to them.
//   - Each simulation is a deterministic discrete-event replay over
//     virtual time (see internal/platform), so its result depends only
//     on its inputs, never on goroutine interleaving.
//   - Results are collected into a slot per index and returned in
//     index order once all workers finish.
//
// Anything violating the first rule (a trained *mlcr.Scheduler used by
// two runs, a shared *obs.Observer) breaks both determinism and memory
// safety: schedulers carry per-run mutable state (featurizer and
// forward-pass workspaces, policy tables), so they must be fresh — or
// cloned via mlcr's Scheduler.Clone — per run.
package runner

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"mlcr/internal/platform"
)

// Options tune the executor.
type Options struct {
	// Parallelism bounds the number of concurrently executing runs;
	// <= 0 uses GOMAXPROCS. Parallelism 1 is exactly sequential
	// execution; any other value produces byte-identical results.
	Parallelism int
}

// workers resolves the worker count for n jobs.
func (o Options) workers(n int) int {
	p := o.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// Map runs f(0), …, f(n-1) on a bounded pool of worker goroutines and
// returns the results in index order. f must be self-contained per the
// package determinism contract: it may read shared immutable data but
// must not touch state mutated by any other index. A panic inside any f
// is re-raised on the caller's goroutine once all workers have stopped.
func Map[T any](n int, opts Options, f func(i int) T) []T {
	out := make([]T, n)
	if n == 0 {
		return out
	}
	w := opts.workers(n)
	if w == 1 {
		for i := 0; i < n; i++ {
			out[i] = f(i)
		}
		return out
	}
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		panicc = make(chan any, 1)
	)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					select {
					case panicc <- r:
					default: // a panic is already pending; first wins
					}
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = f(i)
			}
		}()
	}
	wg.Wait()
	select {
	case r := <-panicc:
		panic(r)
	default:
	}
	return out
}

// Guard panics when two runs of one sweep share a scheduler instance —
// the silent-sharing hazard this harness exists to prevent: schedulers
// carry per-run mutable state, so concurrent sharing is a data race and
// even sequential sharing leaks state between runs. The zero Guard is
// ready for use; one Guard spans one sweep, and Claim is safe for
// concurrent use.
type Guard struct {
	mu   sync.Mutex
	seen map[platform.Scheduler]int
}

// Claim registers the scheduler built for run i (name labels it in the
// panic). Only pointer-shaped schedulers with state are tracked: value
// copies cannot alias each other through the interface, and all
// pointers to a zero-size struct (e.g. *policy.GreedyMatch) share one
// address by construction while carrying no state to corrupt.
func (g *Guard) Claim(sched platform.Scheduler, i int, name string) {
	if sched == nil {
		panic(fmt.Sprintf("runner: spec %d (%q) New returned a nil scheduler", i, name))
	}
	v := reflect.ValueOf(sched)
	if v.Kind() != reflect.Pointer || v.Type().Elem().Size() == 0 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if prev, dup := g.seen[sched]; dup {
		panic(fmt.Sprintf(
			"runner: scheduler %q shared between specs %d and %d (%q) — New must build a fresh instance per run (clone trained models)",
			sched.Name(), prev, i, name))
	}
	if g.seen == nil {
		g.seen = make(map[platform.Scheduler]int)
	}
	g.seen[sched] = i
}
