package drl

import (
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"mlcr/internal/container"
	"mlcr/internal/core"
	"mlcr/internal/fstartbench"
	"mlcr/internal/image"
	"mlcr/internal/workload"
)

func TestFeaturizerExcludesUselessWarmStarts(t *testing.T) {
	f := &Featurizer{Slots: 4}
	// The probe's warm start at L1 costs more than its cold start:
	// free sandbox creation but a gigantic cleaner overhead.
	probe := fn(2, "debian", "node", "express")
	probe.Create = 0
	probe.Clean = time.Hour
	warm := fn(1, "debian", "python", "flask") // L1 match for probe
	st := buildState(t, f, []*workload.Function{warm}, probe)
	for i := 0; i < f.Slots; i++ {
		if st.Mask[i] {
			t.Fatalf("slot %d offered despite warm start costing more than cold", i)
		}
	}
}

func TestFeaturizerGreedyEst(t *testing.T) {
	f := &Featurizer{Slots: 4}
	probe := fn(2, "debian", "python", "numpy")
	warm := fn(1, "debian", "python", "flask")
	st := buildState(t, f, []*workload.Function{warm}, probe)
	want := container.Estimate(probe, core.MatchL2, true).Total()
	if st.GreedyEst != want {
		t.Fatalf("GreedyEst = %v, want %v (the L2 slot)", st.GreedyEst, want)
	}

	// With no candidates, GreedyEst is the cold-start estimate.
	stranger := fn(3, "centos", "go", "gin")
	st2 := buildState(t, f, []*workload.Function{warm}, stranger)
	if st2.GreedyEst != stranger.ColdStartTime() {
		t.Fatalf("GreedyEst = %v, want cold start %v", st2.GreedyEst, stranger.ColdStartTime())
	}
}

func TestFeaturizerRelativeCostFeature(t *testing.T) {
	f := &Featurizer{Slots: 4}
	probe := fn(5, "debian", "python", "flask")
	// Two candidates: probe's own stack (L3, cheapest) and an L2 one.
	warmL3 := fn(5, "debian", "python", "flask")
	warmL2 := fn(6, "debian", "python", "numpy")
	st := buildState(t, f, []*workload.Function{warmL3, warmL2}, probe)
	// Slot 0 is the greedy choice: its relative-cost feature is 0.
	if got := st.X.At(2, 8); got != 0 {
		t.Fatalf("slot 0 relative cost = %v, want 0", got)
	}
	// Slot 1 is strictly more expensive: positive relative cost.
	if got := st.X.At(3, 8); got <= 0 {
		t.Fatalf("slot 1 relative cost = %v, want > 0", got)
	}
}

func TestFeaturizerSlotOrderMatchesCostGreedy(t *testing.T) {
	// The slot-0 candidate must be exactly the container Cost-Greedy
	// would pick — MLCR's margin gate relies on this equivalence.
	f := &Featurizer{Slots: 8}
	probe := fn(5, "debian", "python", "flask")
	warm := []*workload.Function{
		fn(6, "debian", "python", "numpy"),  // L2
		fn(5, "debian", "python", "flask"),  // L3 same function
		fn(10, "debian", "python", "flask"), // L3 cross function (clean cost)
	}
	st := buildState(t, f, warm, probe)
	if st.Candidates[0] < 0 {
		t.Fatal("no slot-0 candidate")
	}
	// Same-function flag must be set on slot 0 (cheapest: no clean).
	if st.X.At(2, 7) != 1 {
		t.Fatal("slot 0 is not the same-function L3 container")
	}
}

// TestHashBucketIsFNV1a: the level hash the featurizer buckets must be
// hash/fnv's 32-bit FNV-1a of the level key — the buckets are features,
// so a different hash would move every trained model's inputs. It holds
// for image.KeyHash itself and for the hash every catalogue image
// caches at construction; an empty level (the featurizer skips it)
// hashes to 0, as in the zero Image.
func TestHashBucketIsFNV1a(t *testing.T) {
	fnv1a := func(k string) uint32 {
		h := fnv.New32a()
		h.Write([]byte(k))
		return h.Sum32()
	}
	for _, k := range []string{"", "x", strings.Repeat("level-key/", 30)} {
		if got, want := image.KeyHash(k), fnv1a(k); got != want {
			t.Errorf("image.KeyHash(%q) = %#x, fnv.New32a gives %#x", k, got, want)
		}
	}
	images := []*image.Image{{Name: "zero"}}
	for _, f := range fstartbench.Functions() {
		images = append(images, &f.Image)
	}
	for _, im := range images {
		for _, l := range image.Levels {
			want := uint32(0)
			if k := im.LevelKey(l); k != "" {
				want = fnv1a(k)
			}
			if got := im.LevelHash(l); got != want {
				t.Errorf("%s: LevelHash(%v) = %#x, want %#x", im.Name, l, got, want)
			}
		}
	}
}
