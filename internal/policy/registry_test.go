package policy

import (
	"testing"

	"mlcr/internal/fstartbench"
	"mlcr/internal/platform"
)

// TestNewByNameCoversRegistry builds every scheduler the registry
// names — the grid set via GridSchedulers plus the paired aliases —
// and sanity-checks the construction contract: fresh instances, a
// usable evictor pairing, and a stable Name. Because it ranges over the
// registry, a newly registered name is covered without edits: a policy
// that can be named but not built (or built broken) must fail here,
// not in the first grid sweep that happens to select it.
func TestNewByNameCoversRegistry(t *testing.T) {
	names := append(GridSchedulers(), "LRU", "FaasCache", "KeepAlive")
	for _, name := range names {
		s, ok := NewByName(name, 1)
		if !ok {
			t.Fatalf("NewByName(%q) unknown", name)
		}
		if s == nil {
			t.Fatalf("NewByName(%q) returned nil scheduler", name)
		}
		if s.Evictor() == nil {
			t.Fatalf("NewByName(%q): nil evictor pairing", name)
		}
		if s.Name() == "" {
			t.Fatalf("NewByName(%q): empty scheduler name", name)
		}
	}
}

// TestNewByNameUnknown pins the miss behaviour the grid driver relies
// on to reject typo'd cell names.
func TestNewByNameUnknown(t *testing.T) {
	if _, ok := NewByName("no-such-scheduler", 0); ok {
		t.Fatal("NewByName accepted an unknown name")
	}
}

// TestGridSchedulersServe smoke-runs each grid scheduler end to end on
// a small workload: every registered name must serve all invocations.
func TestGridSchedulersServe(t *testing.T) {
	w := fstartbench.Build(fstartbench.Names[0], 2, fstartbench.Options{})
	for _, name := range GridSchedulers() {
		s, ok := NewByName(name, 1)
		if !ok {
			t.Fatalf("NewByName(%q) unknown", name)
		}
		res := platform.New(platform.Config{PoolCapacityMB: 0, Evictor: s.Evictor()}, s).Run(w)
		if res.Metrics.Count() != len(w.Invocations) {
			t.Fatalf("%s: served %d of %d invocations", name, res.Metrics.Count(), len(w.Invocations))
		}
	}
}
