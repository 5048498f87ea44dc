package drl

// QBatcher batches nothing: each gateway shard's MLCR clone runs its
// own forward passes. It remains only because bench/ names it; leaves
// with ROADMAP item 26's benchmark change.
type QBatcher struct{}

// NewQBatcher returns the empty QBatcher. It remains only because
// bench/ names it; leaves with ROADMAP item 26's benchmark change.
func NewQBatcher(*QNetwork, int) *QBatcher { return &QBatcher{} }

// Requests reads 0. It remains only because bench/ names it; leaves
// with ROADMAP item 26's benchmark change.
func (*QBatcher) Requests() int64 { return 0 }

// Batches reads 0. It remains only because bench/ names it; leaves
// with ROADMAP item 26's benchmark change.
func (*QBatcher) Batches() int64 { return 0 }
