package pool

import (
	"testing"
	"time"

	"mlcr/internal/container"
	"mlcr/internal/evict"
	"mlcr/internal/image"
	"mlcr/internal/workload"
)

func fn(id int, mem float64) *workload.Function {
	return &workload.Function{
		ID: id, Name: "f",
		Image: image.NewImage("img",
			image.Package{Name: "alpine", Version: "1", Level: image.OS, SizeMB: 5, Pull: 50 * time.Millisecond}),
		Create: 100 * time.Millisecond, Exec: time.Second, MemoryMB: mem,
	}
}

// idleContainer builds an idle container with the given id/function/times.
func idleContainer(id int, f *workload.Function, created time.Duration) *container.Container {
	c, _ := container.NewCold(id, &workload.Invocation{Fn: f, Exec: f.Exec}, created)
	c.Complete(c.BusyUntil)
	return c
}

func TestAddAndTake(t *testing.T) {
	p := New(1000, evict.NewLRU())
	c := idleContainer(1, fn(1, 128), 0)
	if !p.Add(c, time.Second, c.IdleSince) {
		t.Fatal("Add rejected with free capacity")
	}
	if p.Len() != 1 || p.UsedMB() != 128 {
		t.Fatalf("Len=%d Used=%v", p.Len(), p.UsedMB())
	}
	got := p.Take(1, c.IdleSince)
	if got != c || p.Len() != 0 || p.UsedMB() != 0 {
		t.Fatalf("Take returned %v; pool Len=%d Used=%v", got, p.Len(), p.UsedMB())
	}
}

func TestAddPanicsOnBusy(t *testing.T) {
	p := New(1000, evict.NewLRU())
	c, _ := container.NewCold(1, &workload.Invocation{Fn: fn(1, 128), Exec: time.Second}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("adding busy container did not panic")
		}
	}()
	p.Add(c, 0, 0)
}

func TestAddPanicsOnDuplicate(t *testing.T) {
	p := New(1000, evict.NewLRU())
	c := idleContainer(1, fn(1, 128), 0)
	p.Add(c, 0, c.IdleSince)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate add did not panic")
		}
	}()
	p.Add(c, 0, c.IdleSince)
}

func TestTakePanicsOnMissing(t *testing.T) {
	p := New(1000, evict.NewLRU())
	defer func() {
		if recover() == nil {
			t.Fatal("Take of unknown id did not panic")
		}
	}()
	p.Take(42, 0)
}

func TestOversizedContainerRejected(t *testing.T) {
	p := New(100, evict.NewLRU())
	c := idleContainer(1, fn(1, 200), 0)
	if p.Add(c, 0, c.IdleSince) {
		t.Fatal("container larger than pool accepted")
	}
	if c.State != container.Dead {
		t.Fatal("rejected container not killed")
	}
	if st := p.Stats(); st.Rejections != 1 || st.Oversize != 1 {
		t.Fatalf("Rejections = %d, Oversize = %d, want 1 and 1", st.Rejections, st.Oversize)
	}
}

func TestLRUEvictsOldest(t *testing.T) {
	p := New(256, evict.NewLRU())
	f := fn(1, 128)
	a := idleContainer(1, f, 0)
	b := idleContainer(2, f, time.Second)
	p.Add(a, 0, a.IdleSince)
	p.Add(b, 0, b.IdleSince)
	// Pool full (256). Adding c must evict a (oldest LastUsedAt).
	c := idleContainer(3, f, 2*time.Second)
	if !p.Add(c, 0, c.IdleSince) {
		t.Fatal("LRU refused admittable container")
	}
	if p.Get(1) != nil {
		t.Fatal("LRU did not evict the oldest container")
	}
	if a.State != container.Dead {
		t.Fatal("evicted container not killed")
	}
	if p.Get(2) == nil || p.Get(3) == nil {
		t.Fatal("wrong containers evicted")
	}
	if p.Stats().Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", p.Stats().Evictions)
	}
}

func TestLRUEvictsMultipleForLargeContainer(t *testing.T) {
	p := New(256, evict.NewLRU())
	f := fn(1, 128)
	p.Add(idleContainer(1, f, 0), 0, time.Second)
	p.Add(idleContainer(2, f, time.Second), 0, 2*time.Second)
	big := idleContainer(3, fn(2, 256), 2*time.Second)
	if !p.Add(big, 0, big.IdleSince) {
		t.Fatal("big container rejected")
	}
	if p.Len() != 1 || p.Get(3) == nil {
		t.Fatal("expected both small containers evicted")
	}
	if p.Stats().Evictions != 2 {
		t.Fatalf("Evictions = %d, want 2", p.Stats().Evictions)
	}
}

func TestKeepAliveRejectsWhenFull(t *testing.T) {
	p := New(128, evict.KeepAlive{Alive: 10 * time.Minute})
	f := fn(1, 128)
	p.Add(idleContainer(1, f, 0), 0, time.Second)
	c := idleContainer(2, f, time.Second)
	if p.Add(c, 0, c.IdleSince) {
		t.Fatal("full KeepAlive pool accepted a container")
	}
	if p.Get(1) == nil {
		t.Fatal("KeepAlive evicted an existing container")
	}
	if st := p.Stats(); st.Rejections != 1 || st.Oversize != 0 {
		t.Fatalf("Rejections = %d, Oversize = %d, want 1 and 0", st.Rejections, st.Oversize)
	}
}

func TestKeepAliveExpires(t *testing.T) {
	p := New(1000, evict.KeepAlive{Alive: 10 * time.Minute})
	f := fn(1, 128)
	c := idleContainer(1, f, 0)
	p.Add(c, 0, c.IdleSince)
	if got := p.Expire(c.IdleSince + 5*time.Minute); len(got) != 0 {
		t.Fatal("container expired before TTL")
	}
	got := p.Expire(c.IdleSince + 11*time.Minute)
	if len(got) != 1 || got[0] != c {
		t.Fatalf("Expire returned %v", got)
	}
	if p.Len() != 0 || p.Stats().Expirations != 1 {
		t.Fatalf("pool after expiry: Len=%d stats=%+v", p.Len(), p.Stats())
	}
}

func TestLRUNoTTL(t *testing.T) {
	p := New(1000, evict.NewLRU())
	c := idleContainer(1, fn(1, 128), 0)
	p.Add(c, 0, c.IdleSince)
	if got := p.Expire(c.IdleSince + 100*time.Hour); len(got) != 0 {
		t.Fatal("LRU pool expired a container")
	}
}

func TestFaasCachePrefersEvictingLowValue(t *testing.T) {
	ev := evict.NewFaasCache()
	p := New(256, ev)
	// Frequent, expensive, small function -> high priority.
	hot := fn(1, 128)
	// Rare, cheap, same size -> low priority.
	cold := fn(2, 128)
	hc := idleContainer(1, hot, 0)
	cc := idleContainer(2, cold, time.Second)
	p.Add(hc, 10*time.Second, hc.IdleSince) // cost 10s
	p.Add(cc, 100*time.Millisecond, cc.IdleSince)
	// Boost hot function frequency (as if reused many times).
	for i := 0; i < 5; i++ {
		taken := p.Take(1, hc.IdleSince)
		taken.State = container.Idle // keep lifecycle simple for the test
		p.Add(taken, 10*time.Second, hc.IdleSince)
	}
	// Note cc is LRU-newer than hc, but greedy-dual must evict cc (low value).
	nc := idleContainer(3, fn(3, 128), 2*time.Second)
	if !p.Add(nc, time.Second, nc.IdleSince) {
		t.Fatal("FaasCache refused admittable container")
	}
	if p.Get(2) != nil {
		t.Fatal("FaasCache evicted the wrong container (kept low-priority one)")
	}
	if p.Get(1) == nil {
		t.Fatal("FaasCache evicted the high-priority container")
	}
}

func TestFaasCacheClockAges(t *testing.T) {
	ev := evict.NewFaasCache()
	if ev.Clock() != 0 {
		t.Fatal("fresh clock not zero")
	}
	p := New(128, ev)
	f := fn(1, 128)
	p.Add(idleContainer(1, f, 0), time.Second, time.Second)
	p.Add(idleContainer(2, f, time.Second), time.Second, 2*time.Second) // evicts #1
	if ev.Clock() <= 0 {
		t.Fatalf("clock did not advance after eviction: %v", ev.Clock())
	}
}

func TestPeakUsedTracksHighWater(t *testing.T) {
	p := New(1000, evict.NewLRU())
	f := fn(1, 300)
	a := idleContainer(1, f, 0)
	b := idleContainer(2, f, time.Second)
	p.Add(a, 0, a.IdleSince)
	p.Add(b, 0, b.IdleSince)
	p.Take(1, b.IdleSince)
	p.Take(2, b.IdleSince)
	if got := p.Stats().PeakUsedMB; got != 600 {
		t.Fatalf("PeakUsedMB = %v, want 600", got)
	}
	if p.UsedMB() != 0 {
		t.Fatalf("UsedMB after draining = %v", p.UsedMB())
	}
}

func TestUnlimitedPoolNeverEvicts(t *testing.T) {
	p := New(0, evict.NewLRU())
	f := fn(1, 1000)
	for i := 1; i <= 50; i++ {
		c := idleContainer(i, f, time.Duration(i)*time.Second)
		if !p.Add(c, 0, c.IdleSince) {
			t.Fatal("unlimited pool rejected a container")
		}
	}
	if p.Len() != 50 || p.Stats().Evictions != 0 {
		t.Fatalf("Len=%d Evictions=%d", p.Len(), p.Stats().Evictions)
	}
}

func TestNilEvictorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(nil evictor) did not panic")
		}
	}()
	New(100, nil)
}

func TestIdleOrderDeterministic(t *testing.T) {
	p := New(0, evict.NewLRU())
	f := fn(1, 10)
	for i := 1; i <= 5; i++ {
		c := idleContainer(i, f, time.Duration(i)*time.Second)
		p.Add(c, 0, c.IdleSince)
	}
	i := 0
	p.RangeIdle(func(c *container.Container) bool {
		if c.ID != i+1 {
			t.Fatalf("idle order = %v at %d", c.ID, i)
		}
		i++
		return true
	})
	if i != 5 {
		t.Fatalf("RangeIdle visited %d containers, want 5", i)
	}
}
