package platform_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"mlcr/internal/fstartbench"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/workload"
)

// runningProbe is Greedy-Match with a probe: it reads env.RunningMB,
// the memory of the containers busy at the arrival, at every decision.
type runningProbe struct {
	*policy.GreedyMatch
	sumMB float64
	n     int
}

func (r *runningProbe) Schedule(env platform.Env, inv *workload.Invocation) int {
	r.sumMB += env.RunningMB
	r.n++
	return r.GreedyMatch.Schedule(env, inv)
}

// TestRunningMemoryObeysLittlesLaw holds the platform's running-memory
// account to Little's law, which is not the program: one function,
// Poisson arrivals at rate λ, an unlimited pool and no TTL. A container
// is busy from its arrival through startup and execution, so the
// time-averaged busy memory is λ · E[startup + exec] · MB. Poisson
// arrivals see time averages (PASTA), so the mean of the RunningMB
// readings taken at the arrivals must match it.
//
// The bound is in σ of that mean. In steady state the busy count is
// Poisson with mean L = λ·W (M/G/∞), so one reading has variance L, and
// readings about W apart are correlated, which multiplies the variance
// of the mean of n readings by about 1 + λW: σ ≈ √(L(1+L)/n). The seed
// is fixed, so the test is deterministic; the bound is for the noise.
func TestRunningMemoryObeysLittlesLaw(t *testing.T) {
	const (
		n      = 100000
		lambda = 1.0 // arrivals per second
		// tolSigma bounds the gap in σ. Seeds 1–10 read within ±2σ.
		tolSigma = 4
	)
	fn := fstartbench.Functions()[0]
	for _, exec := range []time.Duration{500 * time.Millisecond, 2 * time.Second} {
		t.Run(fmt.Sprintf("exec=%v", exec), func(t *testing.T) {
			probe := &runningProbe{GreedyMatch: policy.NewGreedyMatch()}
			p := platform.New(platform.Config{}, probe)
			rng := rand.New(rand.NewSource(1))
			var at, busy time.Duration
			for i := 0; i < n; i++ {
				at += time.Duration(rng.ExpFloat64() / lambda * float64(time.Second))
				inv := workload.Invocation{Seq: i, Fn: fn, Arrival: at, Exec: exec}
				busy += p.Invoke(&inv).Startup.Total() + exec
			}
			if probe.n != n {
				t.Fatalf("probe saw %d decisions, want %d", probe.n, n)
			}
			rate := float64(n) / at.Seconds() // λ over the horizon the readings cover
			w := busy.Seconds() / n
			l := rate * w
			got, want := probe.sumMB/float64(n), l*fn.MemoryMB
			sigma := math.Sqrt(l*(1+l)/n) * fn.MemoryMB
			if z := (got - want) / sigma; math.Abs(z) > tolSigma {
				t.Errorf("mean running memory at arrivals %.2f MB, Little's law λ·W·MB = %.3f/s · %.3fs · %.0f MB = %.2f MB: %.1fσ apart (σ %.3f MB), bound %dσ",
					got, rate, w, fn.MemoryMB, want, z, sigma, tolSigma)
			}
		})
	}
}
