package platform_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"mlcr/internal/fstartbench"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/workload"
)

// cheHitRatio is Che's approximation of an LRU cache of k equal items
// under independent requests with popularities p: the characteristic
// time T solves Σ (1 − e^(−p_i·T)) = k, and the hit ratio is
// Σ p_i · (1 − e^(−p_i·T)).
func cheHitRatio(p []float64, k int) float64 {
	occupancy := func(t float64) float64 {
		var s float64
		for _, pi := range p {
			s += 1 - math.Exp(-pi*t)
		}
		return s
	}
	lo, hi := 0.0, 1.0
	for occupancy(hi) < float64(k) {
		hi *= 2
	}
	for i := 0; i < 200; i++ {
		if mid := (lo + hi) / 2; occupancy(mid) < float64(k) {
			lo = mid
		} else {
			hi = mid
		}
	}
	var h float64
	for _, pi := range p {
		h += pi * (1 - math.Exp(-pi*hi))
	}
	return h
}

// TestLRUMatchesCheApproximation holds the LRU baseline to a closed
// form that is not the program: 50 clones of one function (same image,
// same memory) with Zipf(0.8) popularity, a pool with room for k
// containers, and arrivals a minute apart so that every container is
// idle again before the next request. Same-function reuse then makes
// the pool an LRU cache of k items under independent requests, whose
// warm share Che's approximation predicts. The seed is fixed, so the
// test is deterministic; the bound is for the model's error.
func TestLRUMatchesCheApproximation(t *testing.T) {
	const (
		nFn    = 50
		alpha  = 0.8
		n      = 100000
		warmup = 2000
		seed   = 1
		// tol bounds |measured − Che| in percentage points. An earlier
		// probe read gaps within 0.27 pp; at this n, seeds 1–10 read
		// up to 0.50 pp over the three k (Che's approximation runs
		// ≈0.2 pp low at k = 5), so 0.75 pp leaves half again as much.
		tol = 0.75
	)
	base := fstartbench.Functions()[0]
	fns := make([]*workload.Function, nFn)
	p := make([]float64, nFn)
	var z float64
	for i := range fns {
		f := *base
		f.ID = i
		fns[i] = &f
		p[i] = math.Pow(float64(i+1), -alpha)
		z += p[i]
	}
	cdf := make([]float64, nFn)
	var acc float64
	for i := range p {
		p[i] /= z
		acc += p[i]
		cdf[i] = acc
	}
	for _, k := range []int{5, 10, 20} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			plat := platform.New(platform.Config{PoolCapacityMB: (float64(k) + 0.5) * base.MemoryMB}, policy.NewLRU())
			rng := rand.New(rand.NewSource(seed))
			hits := 0
			for i := 0; i < n; i++ {
				fn := fns[min(sort.SearchFloat64s(cdf, rng.Float64()), nFn-1)]
				inv := workload.Invocation{Seq: i, Fn: fn, Arrival: time.Duration(i) * time.Minute, Exec: time.Millisecond}
				if r := plat.Invoke(&inv); i >= warmup && !r.Cold {
					hits++
				}
			}
			got, want := float64(hits)/float64(n-warmup), cheHitRatio(p, k)
			if d := 100 * math.Abs(got-want); d > tol {
				t.Errorf("LRU warm share %.4f, Che's approximation %.4f: %.2f pp apart, bound %.2f", got, want, d, tol)
			}
		})
	}
}
