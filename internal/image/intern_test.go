package image

import (
	"fmt"
	"sync"
	"testing"
)

// TestInternedIDsMatchKeyEquality is the soundness property interning
// rests on: equal IDs ⇔ equal level-key strings.
func TestInternedIDsMatchKeyEquality(t *testing.T) {
	imgs := []Image{
		NewImage("a", pkg("alpine", "3.18", OS, 5), pkg("python", "3.9", Language, 50)),
		NewImage("b", pkg("python", "3.9", Language, 50), pkg("alpine", "3.18", OS, 5)),
		NewImage("c", pkg("debian", "11", OS, 50), pkg("python", "3.9", Language, 50)),
		NewImage("d"),
		{Name: "zero"},
	}
	for _, a := range imgs {
		for _, b := range imgs {
			aids, bids := a.LevelIDs(), b.LevelIDs()
			for i, l := range Levels {
				wantEq := a.LevelKey(l) == b.LevelKey(l)
				if gotEq := aids[i] == bids[i]; gotEq != wantEq {
					t.Fatalf("%s/%s level %v: ID equality %v, key equality %v",
						a.Name, b.Name, l, gotEq, wantEq)
				}
			}
		}
	}
}

// TestInternConcurrent exercises the mutex path: concurrent interning of
// overlapping key sets must stay consistent (each key one ID, distinct
// keys distinct IDs, none of them the empty key's 0), even though ID
// assignment order is scheduling-dependent.
func TestInternConcurrent(t *testing.T) {
	const goroutines, perG = 8, 100
	var wg sync.WaitGroup
	ids := make([][]LevelID, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]LevelID, perG)
			for i := 0; i < perG; i++ {
				ids[g][i] = intern(fmt.Sprintf("concurrent-key-%d", i))
			}
		}(g)
	}
	wg.Wait()
	if got := intern(""); got != 0 {
		t.Fatalf("intern(\"\") = %d, want 0", got)
	}
	seen := make(map[LevelID]int, perG)
	for i := 0; i < perG; i++ {
		if prev, ok := seen[ids[0][i]]; ok || ids[0][i] == 0 {
			t.Fatalf("concurrent-key-%d got ID %d, already taken (by key %d or the empty key)", i, ids[0][i], prev)
		}
		seen[ids[0][i]] = i
		for g := 1; g < goroutines; g++ {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("goroutine %d got ID %d for concurrent-key-%d, goroutine 0 got %d",
					g, ids[g][i], i, ids[0][i])
			}
		}
	}
}

// jaccardMaps is the reference Jaccard: a map-based set intersection
// that does not depend on the package order or the cached key sets.
func jaccardMaps(a, b Image) float64 {
	set := func(im Image) map[string]bool {
		s := make(map[string]bool)
		for _, p := range im.Packages() {
			s[p.Key()] = true
		}
		return s
	}
	sa, sb := set(a), set(b)
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for k := range sa {
		if sb[k] {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	return float64(inter) / float64(union)
}

// TestJaccardMergeMatchesMaps: the merge intersection over cached
// sorted key sets must agree exactly with the map-based reference for
// every pair, including images whose packages collide across levels
// and the zero Image.
func TestJaccardMergeMatchesMaps(t *testing.T) {
	imgs := []Image{
		NewImage("a", pkg("alpine", "3.18", OS, 5), pkg("python", "3.9", Language, 50)),
		NewImage("b", pkg("alpine", "3.18", OS, 5), pkg("node", "18", Language, 40)),
		// Same key at two levels: the key set collapses it to one entry.
		NewImage("c", pkg("libssl", "3", OS, 2), pkg("libssl", "3", Runtime, 2)),
		NewImage("d"),
		NewImage("e", pkg("zlib", "1.3", Runtime, 1), pkg("alpine", "3.18", OS, 5), pkg("libssl", "3", OS, 2)),
		{Name: "zero"},
	}
	for _, a := range imgs {
		for _, b := range imgs {
			if got, want := Jaccard(a, b), jaccardMaps(a, b); got != want {
				t.Fatalf("Jaccard(%s,%s) merge=%v maps=%v", a.Name, b.Name, got, want)
			}
		}
	}
}

// BenchmarkJaccardPair measures the per-pair cost of the merge path;
// the map-based reference allocates two maps per pair.
func BenchmarkJaccardPair(b *testing.B) {
	var ps []Package
	for i := 0; i < 40; i++ {
		ps = append(ps, pkg(fmt.Sprintf("p%d", i), "1", Level(i%3+1), 1))
	}
	a := NewImage("a", ps...)
	c := NewImage("c", ps[:30]...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Jaccard(a, c)
	}
}
