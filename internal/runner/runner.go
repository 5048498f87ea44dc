// Package runner is the repository's parallel run harness: a declarative
// Spec describing one self-contained simulation (scheduler setup ×
// workload × pool/evictor/observer configuration) and a
// deterministic bounded-parallel executor that fans specs out across
// worker goroutines and returns results in spec order.
//
// # Determinism contract
//
// Run and Map produce output bit-identical to sequential execution at
// any parallelism, because every run is self-contained:
//
//   - Mutable per-run state — the platform, pool, scheduler, evictor
//     and observer — is built inside the worker goroutine executing
//     the spec, via the Spec's factories, and never shared between
//     runs. Run panics when two specs return the same scheduler
//     instance (see the double-use guard below).
//   - Read-only inputs — workload.Workload, its *workload.Function
//     values and their image data — may be shared freely across
//     concurrent runs; nothing in the simulator writes to them.
//   - Each simulation is a deterministic discrete-event replay over
//     virtual time (see internal/platform), so its result depends only
//     on its spec, never on goroutine interleaving.
//   - Results are collected into a slot per spec and returned in spec
//     order once all workers finish.
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

	"mlcr/internal/obs"
	"mlcr/internal/platform"
	"mlcr/internal/pool"
	"mlcr/internal/workload"
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
//
// Map is the primitive under Run; use it directly for parallel jobs
// that are not platform runs (training sweeps, workload generation,
// cluster workers).
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

// Spec declares one self-contained platform run. The factories are
// called exactly once, from the worker goroutine executing the spec, so
// the mutable state they build is owned by that run alone.
type Spec struct {
	// Name labels the run in errors and reports.
	Name string
	// Workload is replayed through the platform. It is shared read-only
	// across runs; the executor never copies it.
	Workload workload.Workload
	// PoolCapacityMB is the warm-pool size (<= 0 means unlimited).
	PoolCapacityMB float64
	// New builds the run's scheduler and pool evictor. Required. It
	// must return instances used by no other run, past or concurrent —
	// schedulers and evictors are stateful. Run panics when two specs
	// of one call share a scheduler instance.
	New func() (platform.Scheduler, pool.Evictor)
	// NewObserver, when non-nil, builds the run's observability bundle
	// (fresh per run; observers record mutable state). Keep the
	// returned pointer in the closure to inspect it after Run returns.
	NewObserver func() *obs.Observer
}

// Run executes every spec on the bounded worker pool and returns the
// platform results in spec order, bit-identical to sequential execution
// at any parallelism (see the package determinism contract).
func Run(specs []Spec, opts Options) []*platform.RunResult {
	guard := useGuard{seen: make(map[platform.Scheduler]int, len(specs))}
	return Map(len(specs), opts, func(i int) *platform.RunResult {
		s := specs[i]
		if s.New == nil {
			panic(fmt.Sprintf("runner: spec %d (%q) has no New factory", i, s.Name))
		}
		sched, ev := s.New()
		guard.claim(sched, i, s.Name)
		cfg := platform.Config{
			PoolCapacityMB: s.PoolCapacityMB,
			Evictor:        ev,
		}
		if s.NewObserver != nil {
			cfg.Obs = s.NewObserver()
		}
		return platform.New(cfg, sched).Run(s.Workload)
	})
}

// useGuard panics when two specs of one Run call share a scheduler
// instance — the silent-sharing hazard this harness exists to prevent:
// schedulers carry per-run mutable state, so concurrent sharing is a
// data race and even sequential sharing leaks state between runs.
type useGuard struct {
	mu   sync.Mutex
	seen map[platform.Scheduler]int
}

// claim registers the scheduler for spec i. Only pointer-shaped
// schedulers with state are tracked: value copies cannot alias each
// other through the interface, and all pointers to a zero-size struct
// (e.g. *policy.GreedyMatch) share one address by construction while
// carrying no state to corrupt.
func (g *useGuard) claim(sched platform.Scheduler, i int, name string) {
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
	g.seen[sched] = i
}
