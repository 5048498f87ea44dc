package container

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mlcr/internal/core"
	"mlcr/internal/image"
	"mlcr/internal/workload"
)

// randomFunction builds a random-but-valid function spec from fuzz input.
func randomFunction(seed int64) *workload.Function {
	rng := rand.New(rand.NewSource(seed))
	oses := []string{"alpine", "debian", "centos"}
	langs := []string{"python", "node", "java", ""}
	rts := []string{"flask", "numpy", "torch", ""}
	ms := func(max int) time.Duration { return time.Duration(rng.Intn(max)) * time.Millisecond }
	var ps []image.Package
	mk := func(name string, lv image.Level) {
		size := rng.Float64()*100 + 1
		ps = append(ps, image.Package{Name: name, Version: "1", Level: lv, SizeMB: size,
			Pull:    time.Duration(size * float64(40*time.Millisecond)),
			Install: time.Duration(size * float64(5*time.Millisecond))})
	}
	mk(oses[rng.Intn(len(oses))], image.OS)
	if l := langs[rng.Intn(len(langs))]; l != "" {
		mk(l, image.Language)
	}
	if r := rts[rng.Intn(len(rts))]; r != "" {
		mk(r, image.Runtime)
	}
	return &workload.Function{
		ID: rng.Intn(20) + 1, Name: "rand",
		Image:  image.NewImage("rand", ps...),
		Create: ms(500), Clean: ms(100), RuntimeInit: ms(2000),
		FunctionInit: ms(500), Exec: ms(1000) + time.Millisecond,
		MemoryMB: rng.Float64()*900 + 64,
	}
}

// Property: for any function, every phase is non-negative and Total
// equals the phase sum at every level; warm-start estimates are monotone
// in match depth; and a deeper match never pulls or installs more than a
// shallower one. Cold vs L1 totals are deliberately NOT ordered: an L1
// reuse pays the clean cost to save only the OS layer, which can be a
// net loss for functions with a small base image — the scheduler
// compares estimates rather than assuming warm beats cold.
func TestPropertyEstimateMonotone(t *testing.T) {
	f := func(seed int64, cross bool) bool {
		fn := randomFunction(seed)
		cold := Estimate(fn, core.NoMatch, cross)
		prev := cold
		for _, lv := range []core.MatchLevel{core.NoMatch, core.MatchL1, core.MatchL2, core.MatchL3} {
			cur := Estimate(fn, lv, cross)
			for _, d := range []time.Duration{cur.Create, cur.Clean, cur.Pull, cur.Install, cur.RuntimeInit, cur.FunctionInit} {
				if d < 0 {
					return false
				}
			}
			if cur.Total() != cur.Create+cur.Clean+cur.Pull+cur.Install+cur.RuntimeInit+cur.FunctionInit {
				return false
			}
			if cur.Pull > prev.Pull || cur.Install > prev.Install {
				return false
			}
			if lv != core.NoMatch && lv != core.MatchL1 && cur.Total() > prev.Total() {
				return false
			}
			prev = cur
		}
		// Any warm start avoids container creation entirely.
		for _, lv := range []core.MatchLevel{core.MatchL1, core.MatchL2, core.MatchL3} {
			if Estimate(fn, lv, cross).Create != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a full lifecycle (cold start, complete, reuse, complete)
// preserves accounting invariants for any pair of random functions.
func TestPropertyLifecycle(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		fa, fb := randomFunction(seedA), randomFunction(seedB)
		invA := &workload.Invocation{Fn: fa, Exec: fa.Exec}
		c, s := NewCold(1, invA, time.Second)
		if c.BusyUntil != time.Second+s.Total()+fa.Exec {
			return false
		}
		c.Complete(c.BusyUntil)
		lv := core.Match(&fb.Image, c.Image)
		if lv == core.NoMatch {
			return true // nothing further to check
		}
		var cl Cleaner
		invB := &workload.Invocation{Fn: fb, Exec: fb.Exec}
		s2 := c.Reuse(invB, lv, c.IdleSince+time.Second, &cl)
		if c.UseCount != 2 || c.State != Busy {
			return false
		}
		cross := fa.ID != fb.ID
		if cross != (cl.Ops().Repacks == 1) {
			return false
		}
		// After reuse the container carries fb's image exactly.
		if core.Match(&fb.Image, c.Image) != core.MatchL3 {
			return false
		}
		return s2.Total() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
