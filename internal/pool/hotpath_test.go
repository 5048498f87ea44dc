package pool

import (
	"testing"
	"time"

	"mlcr/internal/core"
	"mlcr/internal/evict"
	"mlcr/internal/image"
	"mlcr/internal/workload"
)

// mlFn builds a function with a three-level image for match-index tests.
func mlFn(id int, os, lang, rt string) *workload.Function {
	var ps []image.Package
	if os != "" {
		ps = append(ps, image.Package{Name: os, Version: "1", Level: image.OS, SizeMB: 10})
	}
	if lang != "" {
		ps = append(ps, image.Package{Name: lang, Version: "1", Level: image.Language, SizeMB: 20})
	}
	if rt != "" {
		ps = append(ps, image.Package{Name: rt, Version: "1", Level: image.Runtime, SizeMB: 5})
	}
	return &workload.Function{
		ID: id, Name: "f", Image: image.NewImage("img", ps...),
		Create: 100 * time.Millisecond, Exec: time.Second, MemoryMB: 64,
	}
}

// TestAppendMatchesMatchesNaiveScan checks the index against the ground
// truth: a full core.Match scan over Idle(), across every match level,
// including empty levels and after pool churn.
func TestAppendMatchesMatchesNaiveScan(t *testing.T) {
	p := New(0, evict.NewLRU())
	fns := []*workload.Function{
		mlFn(1, "debian", "python", "flask"),
		mlFn(2, "debian", "python", "numpy"),
		mlFn(3, "debian", "node", "express"),
		mlFn(4, "alpine", "python", "flask"),
		mlFn(5, "debian", "python", "flask"), // duplicate image, distinct fn
		mlFn(6, "debian", "", ""),            // empty language+runtime levels
		mlFn(7, "", "", ""),                  // fully empty image
	}
	id := 100
	for round := 0; round < 2; round++ {
		for _, f := range fns {
			p.Add(idleContainer(id, f, time.Duration(id)*time.Second), 0, 0)
			id++
		}
	}
	// Churn: remove a few so swap-removal and freelist paths run.
	p.Take(101, 0)
	p.Take(105, 0)
	p.Expire(0)

	queries := append(fns, mlFn(8, "centos", "python", "flask"), mlFn(9, "debian", "python", "torch"))
	var scratch []MatchCandidate
	for _, q := range queries {
		scratch = p.AppendMatches(scratch[:0], q.Image)

		want := map[int]core.MatchLevel{}
		for _, c := range p.Idle() {
			if lv := core.Match(&q.Image, c.Image); lv != core.NoMatch {
				want[c.ID] = lv
			}
		}
		got := map[int]core.MatchLevel{}
		prev := core.MatchL3
		for _, mc := range scratch {
			if mc.Level > prev {
				t.Fatalf("query %d: levels not emitted best-first", q.ID)
			}
			prev = mc.Level
			if _, dup := got[mc.C.ID]; dup {
				t.Fatalf("query %d: container %d emitted twice", q.ID, mc.C.ID)
			}
			got[mc.C.ID] = mc.Level
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d matches, want %d", q.ID, len(got), len(want))
		}
		for cid, lv := range want {
			if got[cid] != lv {
				t.Fatalf("query %d: container %d level %v, want %v", q.ID, cid, got[cid], lv)
			}
		}
	}
}

// TestPoolHotPathZeroAllocs asserts the steady-state Add/Take/match cycle
// (including the lazily rebuilt Idle view) allocates nothing once entry
// freelist, buckets and caches are warm.
func TestPoolHotPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	p := New(0, evict.NewLRU())
	f := mlFn(1, "debian", "python", "flask")
	g := mlFn(2, "debian", "python", "numpy")
	cf := idleContainer(10, f, 0)
	cg := idleContainer(11, g, 0)
	var matches []MatchCandidate
	cycle := func() {
		p.Add(cf, 0, 0)
		p.Add(cg, 0, 0)
		p.Idle()
		matches = p.AppendMatches(matches[:0], f.Image)
		p.Take(cf.ID, 0)
		p.Take(cg.ID, 0)
	}
	cycle() // warm freelist, buckets and the Idle cache
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("steady-state Add/Take/match cycle allocates %v per run, want 0", n)
	}
}

// TestExpireZeroAllocsWhenNothingExpires asserts the satellite fix: the
// per-call snapshot copy of the idle list is gone.
func TestExpireZeroAllocsWhenNothingExpires(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	p := New(0, evict.KeepAlive{Alive: time.Hour})
	f := mlFn(1, "debian", "python", "flask")
	for i := 0; i < 8; i++ {
		p.Add(idleContainer(20+i, f, 0), 0, 0)
	}
	if n := testing.AllocsPerRun(100, func() { p.Expire(time.Minute) }); n != 0 {
		t.Fatalf("no-op Expire allocates %v per run, want 0", n)
	}
}

// TestExpireReturnsInsertionOrder pins the deterministic expiry order the
// list-based walk must preserve.
func TestExpireReturnsInsertionOrder(t *testing.T) {
	p := New(0, evict.KeepAlive{Alive: time.Second})
	f := mlFn(1, "debian", "python", "flask")
	var want []int
	for i := 0; i < 5; i++ {
		c := idleContainer(30+i, f, 0)
		p.Add(c, 0, 0)
		want = append(want, c.ID)
	}
	expired := p.Expire(time.Hour)
	if len(expired) != len(want) {
		t.Fatalf("expired %d containers, want %d", len(expired), len(want))
	}
	for i, c := range expired {
		if c.ID != want[i] {
			t.Fatalf("expired[%d] = %d, want %d (insertion order)", i, c.ID, want[i])
		}
	}
	if p.Len() != 0 || p.UsedMB() != 0 {
		t.Fatalf("pool not empty after full expiry: len=%d used=%v", p.Len(), p.UsedMB())
	}
}
