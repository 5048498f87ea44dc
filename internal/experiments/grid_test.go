package experiments

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"mlcr/internal/evict"
	"mlcr/internal/fstartbench"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/pool"
	"mlcr/internal/runner"
)

// pinnedFingerprints are sha256[:12] hashes of the five baseline runs
// (Uniform and Peak, seed 3, pool 1500 MB) captured BEFORE the
// event-driven eviction refactor. The refactor's contract is that the
// O(log n) policies replay the O(n) scans bit-for-bit — any drift in
// victim selection, tie-breaking or TTL handling changes a hash here.
var pinnedFingerprints = map[string]string{
	"LRU/Uniform":          "8b18842028a83c3fe75186ff",
	"LRU/Peak":             "9d60c56e659952a02ea6e52a",
	"FaasCache/Uniform":    "358b6969f108d1641d072227",
	"FaasCache/Peak":       "831ca73a81fb5ba080a1264a",
	"KeepAlive/Uniform":    "40bde803d785af07b247cd8d",
	"KeepAlive/Peak":       "69fe41355f282423fc182149",
	"Greedy-Match/Uniform": "f29780c0847d8ed02d74d47c",
	"Greedy-Match/Peak":    "8f8f81c8687ebebc0b67727f",
	"Cost-Greedy/Uniform":  "34768fa930b91d5f19fb5579",
	"Cost-Greedy/Peak":     "9568584e5d2278c1e12674b7",
}

// TestPinnedBaselineFingerprints replays the capture runs and compares
// against the pre-refactor hashes.
func TestPinnedBaselineFingerprints(t *testing.T) {
	setups := append(Baselines(), SetupOf("Cost-Greedy", 0))
	for _, s := range setups {
		for _, wname := range []string{fstartbench.Uniform, fstartbench.Peak} {
			w := fstartbench.Build(wname, 3, fstartbench.Options{})
			res := runner.Run([]runner.Spec{{
				Name: s.Name, Workload: w, PoolCapacityMB: 1500, New: s.New,
			}}, runner.Options{Parallelism: 1})[0]
			h := sha256.Sum256([]byte(runner.Fingerprint(res)))
			key := s.Name + "/" + wname
			if got := fmt.Sprintf("%x", h[:12]); got != pinnedFingerprints[key] {
				t.Errorf("%s fingerprint %s, pinned pre-refactor %s", key, got, pinnedFingerprints[key])
			}
			// A silent cold-start fallback must never flatter a figure.
			if res.PolicyErrors != 0 {
				t.Errorf("%s: %d policy errors in a pinned run", key, res.PolicyErrors)
			}
		}
	}
}

// zooFingerprints runs every registered eviction policy under the
// Same-Function scheduler at the given parallelism and returns one
// fingerprint per policy, in registry order.
func zooFingerprints(t *testing.T, parallelism int) []string {
	t.Helper()
	w := fstartbench.Build(fstartbench.Peak, 5, fstartbench.Options{Count: 150})
	var specs []runner.Spec
	for _, name := range evict.Names() {
		name := name
		specs = append(specs, runner.Spec{
			Name: name, Workload: w, PoolCapacityMB: 1200,
			New: func() (platform.Scheduler, pool.Evictor) {
				return policy.NewSameFunction(), evict.MustNew(name, 5)
			},
		})
	}
	results := runner.Run(specs, runner.Options{Parallelism: parallelism})
	out := make([]string, len(results))
	for i, res := range results {
		out[i] = runner.Fingerprint(res)
	}
	return out
}

// TestZooParallelMatchesSequential: every policy in the eviction zoo —
// including the seeded random one — must be bit-identical at
// parallelism 1 and 8.
func TestZooParallelMatchesSequential(t *testing.T) {
	seq := zooFingerprints(t, 1)
	for _, par := range []int{8, 0} {
		if got := zooFingerprints(t, par); !reflect.DeepEqual(seq, got) {
			for i, name := range evict.Names() {
				if seq[i] != got[i] {
					t.Errorf("evictor %s diverged at parallelism %d", name, par)
				}
			}
			t.Fatalf("parallelism %d diverged from sequential zoo sweep", par)
		}
	}
}

// TestEvictionGridParallelDeterministic: the grid driver itself must
// produce the identical result structure at any parallelism.
func TestEvictionGridParallelDeterministic(t *testing.T) {
	w := fstartbench.Build(fstartbench.Uniform, 2, fstartbench.Options{Count: 100})
	seq := EvictionGrid(w, 1200, nil, nil, Options{Seed: 2, Parallelism: 1})
	for _, par := range []int{8, 0} {
		got := EvictionGrid(w, 1200, nil, nil, Options{Seed: 2, Parallelism: par})
		if !reflect.DeepEqual(seq, got) {
			t.Fatalf("grid at parallelism %d diverged from sequential", par)
		}
	}
	if len(seq.Cells) != len(policy.GridSchedulers())*len(evict.Names()) {
		t.Fatalf("grid has %d cells, want %d", len(seq.Cells), len(policy.GridSchedulers())*len(evict.Names()))
	}
	if c := seq.Cell("Same-Function", "lru"); c == nil || c.ColdStarts == 0 {
		t.Fatalf("Same-Function/lru cell missing or empty: %+v", c)
	}
}

// TestWithEvictorOverrides: WithEvictor must preserve setup names (the
// figure accumulators key on them) while swapping the eviction policy,
// and an LRU override must be a no-op for the LRU baseline.
func TestWithEvictorOverrides(t *testing.T) {
	w := fstartbench.Build(fstartbench.Uniform, 3, fstartbench.Options{Count: 120})
	base := append(Baselines(), SetupOf("Cost-Greedy", 0))
	wrapped := WithEvictor(base, "lru", 3)
	for i := range base {
		if wrapped[i].Name != base[i].Name {
			t.Fatalf("WithEvictor renamed %q to %q", base[i].Name, wrapped[i].Name)
		}
		_, ev := wrapped[i].New()
		if ev.Name() != "lru" {
			t.Fatalf("setup %s: evictor %s, want lru", wrapped[i].Name, ev.Name())
		}
	}
	// The LRU baseline already pairs with LRU eviction: overriding it
	// with "lru" must not change the run.
	a := RunOnce(base[0], w, 1200)
	b := RunOnce(wrapped[0], w, 1200)
	if runner.Fingerprint(a) != runner.Fingerprint(b) {
		t.Fatal("lru override changed the LRU baseline's run")
	}
	if got := WithEvictor(base, "", 3); reflect.ValueOf(got).Pointer() != reflect.ValueOf(base).Pointer() {
		t.Fatal("empty evictor name must return the setups unchanged")
	}
}
