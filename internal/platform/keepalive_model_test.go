package platform_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mlcr/internal/evict"
	"mlcr/internal/fstartbench"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/workload"
)

// keepAliveModel is a reference model of same-function KeepAlive on an
// unlimited pool, written from the specification rather than from the
// platform: a cold start pays create + every package's pull and install
// + runtime and function init, a same-function warm start pays function
// init only (Table I, full match), and a container is idle from the end
// of its execution until it is reused or has been idle longer than ttl.
type keepAliveModel struct {
	ttl, cold, warm time.Duration
	nextID          int
	alive           []*modelContainer
}

type modelContainer struct {
	id                  int
	busyUntil, lastUsed time.Duration
}

// arrive serves one invocation at t and returns the serving container
// and whether it was a cold start.
func (m *keepAliveModel) arrive(t, exec time.Duration) (id int, cold bool) {
	var mru *modelContainer
	kept := m.alive[:0]
	for _, c := range m.alive {
		// Completions strictly before t are idle since busyUntil; one at
		// t itself is still busy.
		idle := c.busyUntil < t
		if idle && t-c.busyUntil > m.ttl {
			continue // expired
		}
		kept = append(kept, c)
		if idle && (mru == nil || c.lastUsed > mru.lastUsed) {
			mru = c
		}
	}
	m.alive = kept
	if mru == nil {
		m.nextID++
		mru = &modelContainer{id: m.nextID}
		m.alive = append(m.alive, mru)
		cold = true
	}
	start := m.warm
	if cold {
		start = m.cold
	}
	mru.lastUsed, mru.busyUntil = t, t+start+exec
	return mru.id, cold
}

// TestKeepAliveMatchesReferenceModel holds platform.Invoke under the
// KeepAlive baseline to keepAliveModel, invocation by invocation, on one
// function with Poisson arrivals and 1 ms executions at λT = 0.5, 2 and
// 20 (T the 10-minute keep-alive), seeds 1–3.
func TestKeepAliveMatchesReferenceModel(t *testing.T) {
	const n = 20000
	const exec = time.Millisecond
	fn := fstartbench.Functions()[0]
	cold := fn.Create + fn.RuntimeInit + fn.FunctionInit
	for _, p := range fn.Image.Pkgs {
		cold += p.Pull + p.Install
	}
	ttl := evict.DefaultKeepAlive
	for _, lambdaT := range []float64{0.5, 2, 20} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("λT=%v/seed=%d", lambdaT, seed), func(t *testing.T) {
				s := policy.NewKeepAlive()
				p := platform.New(platform.Config{Evictor: s.Evictor()}, s)
				m := &keepAliveModel{ttl: ttl, cold: cold, warm: fn.FunctionInit}
				rng := rand.New(rand.NewSource(seed))
				rate := lambdaT / ttl.Seconds()
				var at float64 // seconds
				for i := 0; i < n; i++ {
					at += rng.ExpFloat64() / rate
					inv := workload.Invocation{Seq: i, Fn: fn, Arrival: time.Duration(at * float64(time.Second)), Exec: exec}
					got := p.Invoke(&inv)
					id, isCold := m.arrive(inv.Arrival, exec)
					want := m.warm
					if isCold {
						want = m.cold
					}
					if got.ContainerID != id || got.Cold != isCold || got.Startup.Total() != want {
						t.Fatalf("invocation %d at %v: platform container %d cold=%v startup %v, model container %d cold=%v startup %v",
							i, inv.Arrival, got.ContainerID, got.Cold, got.Startup.Total(), id, isCold, want)
					}
				}
			})
		}
	}
}
