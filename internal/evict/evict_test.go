package evict_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"mlcr/internal/container"
	"mlcr/internal/evict"
	"mlcr/internal/pool"
)

func TestRegistryNames(t *testing.T) {
	names := evict.Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	want := []string{"clean", "faascache", "keepalive", "lru"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	if _, err := evict.New("nope"); err == nil {
		t.Fatal("New(unknown) did not error")
	}
	// Fresh instances, never shared.
	if evict.MustNew("lru") == evict.MustNew("lru") {
		t.Fatal("MustNew returned a shared instance")
	}
}

func TestDefaultKeepAliveFallback(t *testing.T) {
	if evict.DefaultKeepAlive != 10*time.Minute {
		t.Fatalf("DefaultKeepAlive = %v", evict.DefaultKeepAlive)
	}
	if got := (evict.KeepAlive{}).TTL(); got != evict.DefaultKeepAlive {
		t.Fatalf("zero KeepAlive TTL = %v", got)
	}
	if got := (evict.KeepAlive{Alive: time.Minute}).TTL(); got != time.Minute {
		t.Fatalf("explicit KeepAlive TTL = %v", got)
	}
}

// evictionScript drives one policy instance through a seeded
// add/take/expire sequence against a real pool, checking the shared
// invariants after every step, and returns the (id, reason) sequence of
// every container the pool killed.
type killRecord struct {
	id     int
	reason string
}

func evictionScript(t *testing.T, name string, seed int64, ops int) []killRecord {
	t.Helper()
	pol := evict.MustNew(name)
	const capacity = 1024.0
	p := pool.New(capacity, pol)

	rng := rand.New(rand.NewSource(seed))
	members := map[int]*container.Container{}
	memberIDs := []int{} // sorted; the deterministic pick order
	var kills []killRecord

	p.OnEvict = func(c *container.Container, reason string, _ time.Duration) {
		kills = append(kills, killRecord{id: c.ID, reason: reason})
		if reason == evict.ReasonCapacity || reason == evict.ReasonExpired {
			if _, ok := members[c.ID]; !ok {
				t.Fatalf("%s: killed non-member container %d (%s)", name, c.ID, reason)
			}
			delete(members, c.ID)
			i := sort.SearchInts(memberIDs, c.ID)
			memberIDs = append(memberIDs[:i], memberIDs[i+1:]...)
		}
	}

	check := func() {
		var sum float64
		for _, c := range members {
			sum += c.MemoryMB
			if c.State != container.Idle {
				t.Fatalf("%s: member %d not idle", name, c.ID)
			}
		}
		if p.UsedMB() > capacity+1e-6 {
			t.Fatalf("%s: used %v exceeds capacity", name, p.UsedMB())
		}
		if diff := p.UsedMB() - sum; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("%s: used %v != member sum %v", name, p.UsedMB(), sum)
		}
		if p.Len() != len(members) {
			t.Fatalf("%s: Len %d != members %d", name, p.Len(), len(members))
		}
	}

	now := time.Duration(0)
	nextID := 1
	for i := 0; i < ops; i++ {
		now += time.Duration(rng.Intn(5000)) * time.Millisecond
		switch rng.Intn(4) {
		case 0, 1: // offer a fresh idle container (varying size and volume cost)
			mem := float64(32 * (rng.Intn(5) + 1))
			f := rtFn(nextID%7+1, mem, time.Duration(rng.Intn(3))*time.Second)
			c := idleContainer(nextID, f, now)
			nextID++
			if now < c.IdleSince {
				now = c.IdleSince
			}
			if p.Add(c, time.Duration(rng.Intn(10))*time.Second, now) {
				members[c.ID] = c
				j := sort.SearchInts(memberIDs, c.ID)
				memberIDs = append(memberIDs, 0)
				copy(memberIDs[j+1:], memberIDs[j:])
				memberIDs[j] = c.ID
			} else if c.State != container.Dead {
				t.Fatalf("%s: rejected container %d not killed", name, c.ID)
			}
		case 2: // take a deterministic-random member
			if len(memberIDs) == 0 {
				continue
			}
			id := memberIDs[rng.Intn(len(memberIDs))]
			c := p.Take(id, now)
			if c == nil || c.ID != id {
				t.Fatalf("%s: Take(%d) returned %v", name, id, c)
			}
			delete(members, id)
			j := sort.SearchInts(memberIDs, id)
			memberIDs = append(memberIDs[:j], memberIDs[j+1:]...)
		case 3:
			p.Expire(now)
		}
		check()
	}

	st := p.Stats()
	counts := map[string]int{}
	for _, k := range kills {
		counts[k.reason]++
	}
	if st.Evictions != counts[evict.ReasonCapacity] {
		t.Fatalf("%s: Stats.Evictions %d != capacity kills %d", name, st.Evictions, counts[evict.ReasonCapacity])
	}
	if st.Expirations != counts[evict.ReasonExpired] {
		t.Fatalf("%s: Stats.Expirations %d != expiry kills %d", name, st.Expirations, counts[evict.ReasonExpired])
	}
	if st.Rejections != counts[evict.ReasonRejected]+counts[evict.ReasonOversize] {
		t.Fatalf("%s: Stats.Rejections %d != rejected+oversize kills %d",
			name, st.Rejections, counts[evict.ReasonRejected]+counts[evict.ReasonOversize])
	}
	return kills
}

// TestPropertyEveryPolicy runs the shared invariant script against every
// registered policy: busy/non-member containers are never picked,
// capacity is never exceeded, Stats agrees with the OnEvict reasons —
// and the whole kill sequence is bit-identical across two runs with the
// same seed (shuffled pointer identities between runs can not leak into
// victim selection).
func TestPropertyEveryPolicy(t *testing.T) {
	for _, name := range evict.Names() {
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{1, 7, 42} {
				a := evictionScript(t, name, seed, 300)
				b := evictionScript(t, name, seed, 300)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d: kill sequence not deterministic:\n%v\nvs\n%v", seed, a, b)
				}
			}
		})
	}
}

func lastKill(p *pool.Pool) *int {
	id := new(int)
	*id = -1
	p.OnEvict = func(c *container.Container, reason string, _ time.Duration) {
		if reason == evict.ReasonCapacity {
			*id = c.ID
		}
	}
	return id
}

func TestCleanEvictsCheapestRewarmFirst(t *testing.T) {
	pol := evict.MustNew("clean")
	p := pool.New(128, pol)
	clean := idleContainer(1, rtFn(1, 64, 0), time.Second)               // no L3 volume cost
	dirty := idleContainer(2, rtFn(2, 64, 5*time.Second), 2*time.Second) // expensive volume
	p.Add(dirty, time.Second, dirty.IdleSince)
	p.Add(clean, time.Second, clean.IdleSince)
	victim := lastKill(p)
	p.Add(idleContainer(3, fn(3, 64), 10*time.Second), time.Second, 10*time.Second)
	if *victim != 1 {
		t.Fatalf("clean evicted %d, want 1 (needs no volume re-warm)", *victim)
	}
}

// refuseAll is a displacing policy that refuses every eviction: Admit
// says yes and PickVictim says nil, so a full pool's Add takes the
// nil-victim rejection branch.
type refuseAll struct{ evict.Policy }

func (refuseAll) PickVictim(time.Duration) *container.Container { return nil }

// TestPickVictimZeroAllocs locks the tentpole claim: once its bookkeeping
// is warm, a full pool's Add allocates nothing under any policy — the
// Add→PickVictim→evict cycle of every displacing policy, and the refused
// Add of the keep-alive policy and of a policy whose PickVictim returns
// nil.
func TestPickVictimZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	const n = 256
	type policyCase struct {
		name    string
		new     func() evict.Policy
		refuses bool
	}
	var cases []policyCase
	for _, name := range evict.Names() {
		newPol := func() evict.Policy { return evict.MustNew(name) }
		cases = append(cases, policyCase{name, newPol, !newPol().Admit()})
	}
	cases = append(cases, policyCase{"nil-victim", func() evict.Policy { return refuseAll{evict.NewLRU()} }, true})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := rtFn(1, 64, time.Second)
			p := pool.New(n*64, tc.new())
			for i := 1; i <= n; i++ {
				c := idleContainer(i, f, time.Duration(i)*time.Second)
				if !p.Add(c, time.Second, c.IdleSince) {
					t.Fatalf("prefill rejected container %d", i)
				}
			}
			now := time.Duration(n) * time.Second
			cur := idleContainer(n+1, f, now)
			cycle := func() {
				now += time.Second
				cur.State = container.Idle
				if p.Add(cur, time.Second, now) {
					panic("full pool admitted the offer")
				}
			}
			if !tc.refuses {
				var evicted *container.Container
				p.OnEvict = func(c *container.Container, _ string, _ time.Duration) { evicted = c }
				cycle = func() {
					now += time.Second
					if !p.Add(cur, time.Second, now) {
						panic("cycle Add rejected")
					}
					v := evicted
					v.State = container.Idle
					v.LastUsedAt = now
					v.IdleSince = now
					cur = v
				}
			}
			// Warm heap and freelist capacity.
			for i := 0; i < 3*n; i++ {
				cycle()
			}
			if got := testing.AllocsPerRun(200, cycle); got != 0 {
				t.Fatalf("%s full-pool Add cycle allocates %v per run, want 0", tc.name, got)
			}
		})
	}
}

// TestRangeIdleZeroAllocs locks the satellite: scheduler scan loops over
// the pool allocate nothing.
func TestRangeIdleZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	p := pool.New(0, evict.NewLRU())
	f := fn(1, 64)
	for i := 1; i <= 64; i++ {
		c := idleContainer(i, f, time.Duration(i)*time.Second)
		p.Add(c, time.Second, c.IdleSince)
	}
	sum := 0
	scan := func() {
		sum = 0
		p.RangeIdle(func(c *container.Container) bool {
			sum += c.ID
			return true
		})
	}
	scan()
	if got := testing.AllocsPerRun(200, scan); got != 0 {
		t.Fatalf("RangeIdle allocates %v per run, want 0", got)
	}
	if sum != 64*65/2 {
		t.Fatalf("RangeIdle visited wrong set: sum=%d", sum)
	}
}
