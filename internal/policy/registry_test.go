package policy

import (
	"reflect"
	"testing"

	"mlcr/internal/fstartbench"
	"mlcr/internal/platform"
)

// TestNewByNameCoversRegistry builds every scheduler the registry
// names and sanity-checks the construction contract: a known name, a
// matching Name, and a usable evictor pairing. Because it ranges over
// Names(), a newly registered name is covered without edits: a policy
// that can be named but not built (or built broken) must fail here,
// not in the first grid sweep that happens to select it.
func TestNewByNameCoversRegistry(t *testing.T) {
	want := []string{"Cost-Greedy", "FaasCache", "Greedy-Match", "KeepAlive", "LRU", "Same-Function", "Tabular-Q"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range Names() {
		s, err := New(name, 1)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("New(%q) built a scheduler named %q", name, s.Name())
		}
		if s.Evictor() == nil {
			t.Fatalf("New(%q): nil evictor pairing", name)
		}
	}
	for _, name := range GridSchedulers() {
		if _, err := New(name, 1); err != nil {
			t.Fatalf("grid scheduler %q is not registered: %v", name, err)
		}
	}
}

// TestNewByNameUnknown pins the miss behaviour the grid driver and the
// CLIs rely on to reject typo'd names.
func TestNewByNameUnknown(t *testing.T) {
	if _, err := New("no-such-scheduler", 0); err == nil {
		t.Fatal("New accepted an unknown name")
	}
}

// TestGridSchedulersServe smoke-runs each grid scheduler end to end on
// a small workload: every registered name must serve all invocations.
func TestGridSchedulersServe(t *testing.T) {
	w := fstartbench.Build(fstartbench.Names[0], 2, fstartbench.Options{})
	for _, name := range GridSchedulers() {
		s, err := New(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		res := platform.New(platform.Config{PoolCapacityMB: 0, Evictor: s.Evictor()}, s).Run(w)
		if res.Metrics.Count() != len(w.Invocations) {
			t.Fatalf("%s: served %d of %d invocations", name, res.Metrics.Count(), len(w.Invocations))
		}
	}
}
