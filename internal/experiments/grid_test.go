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
			res := RunAll([]Setup{s}, w, 1500, Options{Parallelism: 1})[0]
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
	var setups []Setup
	for _, name := range evict.Names() {
		setups = append(setups, Setup{Name: name, Evictor: name,
			New: func(int) platform.Scheduler { return policy.NewSameFunction() }})
	}
	results := RunAll(setups, w, 1200, Options{Parallelism: parallelism})
	out := make([]string, len(results))
	for i, res := range results {
		out[i] = runner.Fingerprint(res)
	}
	return out
}

// TestZooParallelMatchesSequential: every registered eviction policy
// must be bit-identical at parallelism 1 and 8.
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

// TestWithEvictorOverrides: WithEvictor must preserve setup names (the
// figure accumulators key on them) while swapping the eviction policy,
// and an LRU override must be a no-op for the LRU baseline.
func TestWithEvictorOverrides(t *testing.T) {
	w := fstartbench.Build(fstartbench.Uniform, 3, fstartbench.Options{Count: 120})
	base := append(Baselines(), SetupOf("Cost-Greedy", 0))
	wrapped := WithEvictor(base, "lru")
	for i := range base {
		if wrapped[i].Name != base[i].Name {
			t.Fatalf("WithEvictor renamed %q to %q", base[i].Name, wrapped[i].Name)
		}
		if wrapped[i].Evictor != "lru" || base[i].Evictor != "" {
			t.Fatalf("setup %s: evictor %q, want lru (base %q untouched)", wrapped[i].Name, wrapped[i].Evictor, base[i].Evictor)
		}
	}
	// The LRU baseline already pairs with LRU eviction: overriding it
	// with "lru" must not change the run.
	res := RunAll([]Setup{base[0], wrapped[0]}, w, 1200, Options{})
	if runner.Fingerprint(res[0]) != runner.Fingerprint(res[1]) || res[1].Evictor != "lru" {
		t.Fatal("lru override changed the LRU baseline's run")
	}
	if got := WithEvictor(base, ""); reflect.ValueOf(got).Pointer() != reflect.ValueOf(base).Pointer() {
		t.Fatal("empty evictor name must return the setups unchanged")
	}
}
