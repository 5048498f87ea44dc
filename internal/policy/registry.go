package policy

import (
	"mlcr/internal/named"
	"mlcr/internal/platform"
	"mlcr/internal/pool"
)

// Evictored is a scheduler bundled with its default eviction policy —
// the pairing every Setup, CLI and grid driver works in.
type Evictored interface {
	platform.Scheduler
	Evictor() pool.Evictor
}

// schedulers is the scheduler registry. Each constructor returns a
// fresh instance; seed feeds learned schedulers' RNGs (Tabular-Q), and
// deterministic schedulers ignore it. MLCR is not here: it needs
// offline training (or a model file) and lives in package mlcr.
var schedulers = named.Table[func(seed int64) Evictored]{Kind: "scheduler"}

func init() {
	schedulers.Register("Cost-Greedy", func(int64) Evictored { return NewCostGreedy() })
	schedulers.Register("FaasCache", func(int64) Evictored { return NewFaasCache() })
	schedulers.Register("Greedy-Match", func(int64) Evictored { return NewGreedyMatch() })
	schedulers.Register("KeepAlive", func(int64) Evictored { return NewKeepAlive() })
	schedulers.Register("LRU", func(int64) Evictored { return NewLRU() })
	schedulers.Register("Same-Function", func(int64) Evictored { return NewSameFunction() })
	schedulers.Register("Tabular-Q", func(seed int64) Evictored { return NewTabularQ(seed) })
}

// New builds a fresh scheduler, with its default evictor pairing, by
// registry name, or an error naming the known schedulers.
func New(name string, seed int64) (Evictored, error) {
	mk, err := schedulers.Lookup(name)
	if err != nil {
		return nil, err
	}
	return mk(seed), nil
}

// Names returns the registered scheduler names in sorted order. The
// slice is fresh; callers may keep it.
func Names() []string { return schedulers.Names() }

// GridSchedulers lists the scheduler names crossed with the eviction
// zoo in grid mode: the non-learned schedulers (cheap enough to run
// against every evictor) in increasing sophistication. MLCR requires
// offline training and keeps its LRU pairing outside the grid.
func GridSchedulers() []string {
	return []string{"Same-Function", "Greedy-Match", "Cost-Greedy", "Tabular-Q"}
}
