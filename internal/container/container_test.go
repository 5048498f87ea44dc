package container

import (
	"testing"
	"time"
	"unsafe"

	"mlcr/internal/core"
	"mlcr/internal/image"
	"mlcr/internal/workload"
)

func fn(id int, os, lang, rt string) *workload.Function {
	var ps []image.Package
	ps = append(ps, image.Package{Name: os, Version: "1", Level: image.OS, SizeMB: 10,
		Pull: 100 * time.Millisecond, Install: 10 * time.Millisecond})
	if lang != "" {
		ps = append(ps, image.Package{Name: lang, Version: "1", Level: image.Language, SizeMB: 50,
			Pull: 500 * time.Millisecond, Install: 50 * time.Millisecond})
	}
	if rt != "" {
		ps = append(ps, image.Package{Name: rt, Version: "1", Level: image.Runtime, SizeMB: 20,
			Pull: 200 * time.Millisecond, Install: 20 * time.Millisecond})
	}
	return &workload.Function{
		ID: id, Name: os + "-" + lang + "-" + rt,
		Image:  image.NewImage("img", ps...),
		Create: 300 * time.Millisecond, Clean: 40 * time.Millisecond,
		RuntimeInit: 150 * time.Millisecond, FunctionInit: 25 * time.Millisecond,
		Exec: time.Second, MemoryMB: 128,
	}
}

func TestEstimateCold(t *testing.T) {
	f := fn(1, "debian", "python", "flask")
	s := Estimate(f, core.NoMatch, false)
	if !s.Cold {
		t.Fatal("cold start not marked Cold")
	}
	// create 300 + pull (100+500+200) + install (10+50+20) + runtime 150 + fn 25
	want := 300 + 800 + 80 + 150 + 25
	if got := s.Total(); got != time.Duration(want)*time.Millisecond {
		t.Fatalf("cold total = %v, want %dms", got, want)
	}
	if s.Clean != 0 {
		t.Fatal("cold start charged cleaner overhead")
	}
	if s.Total() != f.ColdStartTime() {
		t.Fatalf("Estimate cold %v != Function.ColdStartTime %v", s.Total(), f.ColdStartTime())
	}
}

func TestEstimateL1(t *testing.T) {
	f := fn(1, "debian", "python", "flask")
	s := Estimate(f, core.MatchL1, true)
	// clean 40 + pull (500+200) + install (50+20) + runtime 150 + fn 25 = 985
	if got := s.Total(); got != 985*time.Millisecond {
		t.Fatalf("L1 total = %v, want 985ms", got)
	}
	if s.Create != 0 {
		t.Fatal("warm start charged sandbox creation")
	}
}

func TestEstimateL2(t *testing.T) {
	f := fn(1, "debian", "python", "flask")
	s := Estimate(f, core.MatchL2, true)
	// clean 40 + pull 200 + install 20 + runtime 150 + fn 25 = 435
	if got := s.Total(); got != 435*time.Millisecond {
		t.Fatalf("L2 total = %v, want 435ms", got)
	}
}

func TestEstimateL3(t *testing.T) {
	f := fn(1, "debian", "python", "flask")
	same := Estimate(f, core.MatchL3, false)
	if got := same.Total(); got != 25*time.Millisecond {
		t.Fatalf("L3 same-function total = %v, want 25ms (fn init only)", got)
	}
	cross := Estimate(f, core.MatchL3, true)
	if got := cross.Total(); got != 65*time.Millisecond {
		t.Fatalf("L3 cross-function total = %v, want 65ms (clean + fn init)", got)
	}
}

func TestEstimateMonotoneInLevel(t *testing.T) {
	f := fn(1, "debian", "python", "flask")
	prev := Estimate(f, core.NoMatch, true).Total()
	for _, lv := range []core.MatchLevel{core.MatchL1, core.MatchL2, core.MatchL3} {
		cur := Estimate(f, lv, true).Total()
		if cur >= prev {
			t.Fatalf("startup at %v (%v) not cheaper than previous level (%v)", lv, cur, prev)
		}
		prev = cur
	}
}

func TestEstimatePanicsOnBadLevel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid level did not panic")
		}
	}()
	Estimate(fn(1, "a", "b", "c"), core.MatchLevel(99), false)
}

func TestEstimateFor(t *testing.T) {
	f := fn(1, "debian", "python", "flask")
	g := fn(2, "debian", "python", "numpy")
	c, _ := NewCold(1, &workload.Invocation{Fn: g, Exec: g.Exec}, 0)
	s, lv := EstimateFor(f, c)
	if lv != core.MatchL2 {
		t.Fatalf("level = %v, want MatchL2", lv)
	}
	if s.Clean == 0 {
		t.Fatal("cross-function reuse did not charge cleaner")
	}
	h := fn(3, "alpine", "go", "gin")
	s2, lv2 := EstimateFor(h, c)
	if lv2 != core.NoMatch || !s2.Cold {
		t.Fatalf("OS mismatch should estimate a cold start, got %v", lv2)
	}
}

func TestNewColdLifecycle(t *testing.T) {
	f := fn(1, "debian", "python", "flask")
	inv := &workload.Invocation{Fn: f, Exec: 2 * time.Second}
	c, s := NewCold(7, inv, 10*time.Second)
	if c.State != Busy || c.UseCount != 1 || c.ID != 7 {
		t.Fatalf("unexpected container: %+v", c)
	}
	wantBusy := 10*time.Second + s.Total() + 2*time.Second
	if c.BusyUntil != wantBusy {
		t.Fatalf("BusyUntil = %v, want %v", c.BusyUntil, wantBusy)
	}
	c.Complete(c.BusyUntil)
	if c.State != Idle || c.IdleSince != wantBusy {
		t.Fatalf("after Complete: %+v", c)
	}
	if got := c.IdleFor(wantBusy + time.Minute); got != time.Minute {
		t.Fatalf("IdleFor = %v, want 1m", got)
	}
}

func TestReuseSameFunction(t *testing.T) {
	f := fn(1, "debian", "python", "flask")
	inv := &workload.Invocation{Fn: f, Exec: time.Second}
	c, _ := NewCold(1, inv, 0)
	c.Complete(c.BusyUntil)
	var cl Cleaner
	s := c.Reuse(&workload.Invocation{Fn: f, Exec: time.Second}, core.MatchL3, c.IdleSince+time.Second, &cl)
	if s.Clean != 0 {
		t.Fatal("same-function L3 reuse charged cleaner")
	}
	if cl.Ops().Repacks != 0 {
		t.Fatal("same-function reuse triggered a repack")
	}
	if c.UseCount != 2 || c.State != Busy {
		t.Fatalf("after reuse: %+v", c)
	}
}

func TestReuseCrossFunctionRepacks(t *testing.T) {
	f := fn(1, "debian", "python", "flask")
	g := fn(2, "debian", "python", "numpy")
	c, _ := NewCold(1, &workload.Invocation{Fn: f, Exec: time.Second}, 0)
	c.Complete(c.BusyUntil)
	var cl Cleaner
	s := c.Reuse(&workload.Invocation{Fn: g, Exec: time.Second}, core.MatchL2, c.IdleSince, &cl)
	if s.Clean != g.Clean {
		t.Fatalf("cross reuse clean = %v, want %v", s.Clean, g.Clean)
	}
	ops := cl.Ops()
	if ops.Repacks != 1 || ops.UserWipes != 1 {
		t.Fatalf("ops = %+v, want 1 repack and 1 user wipe", ops)
	}
	if ops.Unmounts != 1 || ops.Mounts != 1 {
		t.Fatalf("L2 repack should swap only the runtime volume, got %+v", ops)
	}
	if c.FnID != 2 {
		t.Fatalf("container FnID = %d, want 2", c.FnID)
	}
	if c.Image.LevelKey(image.Runtime) != g.Image.LevelKey(image.Runtime) {
		t.Fatal("container image not updated to the new function")
	}
}

// TestContainerPointsAtFunctionImage: a container holds a pointer to
// its function's image rather than a copy, so it stays one small
// object: a cold start allocates it alone, and a reuse repoints it.
func TestContainerPointsAtFunctionImage(t *testing.T) {
	if size := unsafe.Sizeof(Container{}); size > 128 {
		t.Fatalf("Container is %d bytes, want <= 128", size)
	}
	f := fn(1, "debian", "python", "flask")
	g := fn(2, "debian", "python", "numpy")
	inv := &workload.Invocation{Fn: f, Exec: time.Second}
	c, _ := NewCold(1, inv, 0)
	if c.Image != &f.Image {
		t.Fatal("cold start copied the function's image")
	}
	if allocs := testing.AllocsPerRun(100, func() { NewCold(1, inv, 0) }); allocs != 1 {
		t.Fatalf("NewCold allocates %v objects, want 1", allocs)
	}
	c.Complete(c.BusyUntil)
	c.Reuse(&workload.Invocation{Fn: g, Exec: time.Second}, core.MatchL2, c.IdleSince, nil)
	if c.Image != &g.Image {
		t.Fatal("cross-function reuse did not repoint the container at the new image")
	}
}

func TestRepackL1SwapsLanguageAndRuntime(t *testing.T) {
	f := fn(1, "debian", "python", "flask")
	g := fn(2, "debian", "node", "express")
	c, _ := NewCold(1, &workload.Invocation{Fn: f, Exec: time.Second}, 0)
	c.Complete(c.BusyUntil)
	var cl Cleaner
	c.Reuse(&workload.Invocation{Fn: g, Exec: time.Second}, core.MatchL1, c.IdleSince, &cl)
	ops := cl.Ops()
	if ops.Unmounts != 2 || ops.Mounts != 2 {
		t.Fatalf("L1 repack ops = %+v, want 2 unmounts and 2 mounts", ops)
	}
}

func TestRepackHandlesEmptyLevels(t *testing.T) {
	f := fn(1, "centos", "gcc", "") // no runtime packages
	g := fn(2, "centos", "gcc", "boost")
	c, _ := NewCold(1, &workload.Invocation{Fn: f, Exec: time.Second}, 0)
	c.Complete(c.BusyUntil)
	var cl Cleaner
	c.Reuse(&workload.Invocation{Fn: g, Exec: time.Second}, core.MatchL2, c.IdleSince, &cl)
	ops := cl.Ops()
	if ops.Unmounts != 0 || ops.Mounts != 1 {
		t.Fatalf("empty runtime level repack ops = %+v, want 0 unmounts 1 mount", ops)
	}
}

func TestReusePanicsWhenBusy(t *testing.T) {
	f := fn(1, "debian", "python", "flask")
	c, _ := NewCold(1, &workload.Invocation{Fn: f, Exec: time.Second}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("reusing a busy container did not panic")
		}
	}()
	c.Reuse(&workload.Invocation{Fn: f, Exec: time.Second}, core.MatchL3, 0, nil)
}

func TestReusePanicsOnNoMatch(t *testing.T) {
	f := fn(1, "debian", "python", "flask")
	c, _ := NewCold(1, &workload.Invocation{Fn: f, Exec: time.Second}, 0)
	c.Complete(c.BusyUntil)
	defer func() {
		if recover() == nil {
			t.Fatal("NoMatch reuse did not panic")
		}
	}()
	c.Reuse(&workload.Invocation{Fn: f, Exec: time.Second}, core.NoMatch, c.IdleSince, nil)
}

func TestCompletePanicsWhenIdle(t *testing.T) {
	f := fn(1, "debian", "python", "flask")
	c, _ := NewCold(1, &workload.Invocation{Fn: f, Exec: time.Second}, 0)
	c.Complete(c.BusyUntil)
	defer func() {
		if recover() == nil {
			t.Fatal("Complete on idle container did not panic")
		}
	}()
	c.Complete(c.BusyUntil)
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Idle: "idle", Busy: "busy", Dead: "dead", State(9): "State(9)"} {
		if got := s.String(); got != want {
			t.Errorf("State(%d) = %q, want %q", int(s), got, want)
		}
	}
}

func TestKill(t *testing.T) {
	f := fn(1, "debian", "python", "flask")
	c, _ := NewCold(1, &workload.Invocation{Fn: f, Exec: time.Second}, 0)
	c.Complete(c.BusyUntil)
	c.Kill()
	if c.State != Dead {
		t.Fatalf("state after Kill = %v", c.State)
	}
	if c.IdleFor(time.Hour) != 0 {
		t.Fatal("dead container reports idle time")
	}
}
