package workload

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// stableSortMerge is Merge as it was written before SortArrivals: one
// sort.SliceStable over (function, instant) items. It is the oracle the
// radix order is held to.
func stableSortMerge(name string, streams []Stream, jitter float64, rng *rand.Rand) Workload {
	type item struct {
		fn *Function
		at time.Duration
	}
	var items []item
	fns := make([]*Function, 0, len(streams))
	seen := map[int]bool{}
	for _, s := range streams {
		if !seen[s.Fn.ID] {
			seen[s.Fn.ID] = true
			fns = append(fns, s.Fn)
		}
		for _, at := range s.Times {
			items = append(items, item{s.Fn, at})
		}
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].at < items[j].at })
	invs := make([]Invocation, len(items))
	for i, it := range items {
		exec := it.fn.Exec
		if jitter > 0 && rng != nil {
			f := 1 + (rng.Float64()*2-1)*jitter
			exec = time.Duration(float64(exec) * f)
		}
		invs[i] = Invocation{Seq: i, Fn: it.fn, Arrival: it.at, Exec: exec}
	}
	return Workload{Name: name, Functions: fns, Invocations: invs}
}

// TestMergeMatchesStableSort: Merge equals the stable-sort oracle
// exactly — function list, invocation order, Fn pointers and jittered
// execs — on streams built to break a wrong order: few distinct instants
// shared across streams, unsorted and empty streams, distinct functions
// with the same ID, and instants that are negative, zero, at or above
// 2⁴⁷, or at either end of the Duration range.
func TestMergeMatchesStableSort(t *testing.T) {
	extremes := []time.Duration{math.MinInt64, -1 << 47, -1, 0, 1, 1 << 47, 1<<47 + 1, 1 << 62, math.MaxInt64}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		// A small pool of instants makes ties across streams common;
		// a large one spreads keys over every radix digit.
		pool := make([]time.Duration, 1+rng.Intn(40))
		if trial%3 == 0 {
			pool = make([]time.Duration, 2000)
		}
		for i := range pool {
			switch rng.Intn(4) {
			case 0:
				pool[i] = extremes[rng.Intn(len(extremes))]
			case 1:
				pool[i] = time.Duration(rng.Int63())
			case 2:
				pool[i] = -time.Duration(rng.Int63n(1 << 50))
			default:
				pool[i] = time.Duration(rng.Int63n(1 << 20))
			}
		}
		var fns []*Function
		for id, ids := 1, 1+rng.Intn(6); id <= ids; id++ {
			fns = append(fns, testFn(id, "f", "alpine"))
			if rng.Intn(3) == 0 { // another function with the same ID
				twin := testFn(id, "twin", "debian")
				twin.Exec = 3 * time.Second
				fns = append(fns, twin)
			}
		}
		streams := make([]Stream, rng.Intn(12))
		for i := range streams {
			times := make([]time.Duration, rng.Intn(3)*rng.Intn(200)) // a third are empty
			for j := range times {
				times[j] = pool[rng.Intn(len(pool))]
			}
			if rng.Intn(2) == 0 {
				sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
			}
			streams[i] = Stream{Fn: fns[rng.Intn(len(fns))], Times: times}
		}
		jitter, seed := 0.0, rng.Int63()
		if trial%2 == 0 {
			jitter = 0.3
		}
		got := Merge("m", streams, jitter, rand.New(rand.NewSource(seed)))
		want := stableSortMerge("m", streams, jitter, rand.New(rand.NewSource(seed)))
		if len(got.Functions) != len(want.Functions) {
			t.Fatalf("trial %d: %d functions, want %d", trial, len(got.Functions), len(want.Functions))
		}
		for i := range want.Functions {
			if got.Functions[i] != want.Functions[i] {
				t.Fatalf("trial %d: function %d is %p, want %p", trial, i, got.Functions[i], want.Functions[i])
			}
		}
		if len(got.Invocations) != len(want.Invocations) {
			t.Fatalf("trial %d: %d invocations, want %d", trial, len(got.Invocations), len(want.Invocations))
		}
		for i := range want.Invocations {
			if got.Invocations[i] != want.Invocations[i] {
				t.Fatalf("trial %d: invocation %d = %+v, want %+v", trial, i, got.Invocations[i], want.Invocations[i])
			}
		}
	}
}

// BenchmarkMerge merges the repository benchmark's sim_cluster trace:
// 28,574 functions with Azure-mix counts (145,464 arrivals), each
// stream uniform over a day and sorted, execution jitter 0.1.
func BenchmarkMerge(b *testing.B) {
	const functions = 28_574
	counts := AzureMix{Rng: rand.New(rand.NewSource(1))}.Counts(functions)
	base := testFn(1, "f", "alpine")
	rng := rand.New(rand.NewSource(1))
	streams := make([]Stream, functions)
	arrivals := 0
	for i := range streams {
		f := *base
		f.ID = i + 1
		times := make([]time.Duration, counts[i])
		for j := range times {
			times[j] = time.Duration(rng.Float64() * float64(24*time.Hour))
		}
		sort.Slice(times, func(x, y int) bool { return times[x] < times[y] })
		streams[i] = Stream{Fn: &f, Times: times}
		arrivals += len(times)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Merge("azure", streams, 0.1, rand.New(rand.NewSource(int64(i))))
	}
	b.ReportMetric(float64(arrivals), "arrivals")
}
