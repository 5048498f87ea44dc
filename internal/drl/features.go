// Package drl implements the paper's Deep-Q-Network container scheduler
// substrate: state featurization (Section IV-B "State"), the policy
// network of Figure 7 (embedding → two multi-head attention layers → two
// linear layers → action mask), an experience-replay buffer and the DQN
// training update of Algorithm 1.
package drl

import (
	"time"

	"mlcr/internal/container"
	"mlcr/internal/core"
	"mlcr/internal/image"
	"mlcr/internal/nn"
	"mlcr/internal/platform"
	"mlcr/internal/pool"
	"mlcr/internal/workload"
)

// hashBuckets is the number of one-hot buckets used to embed a package
// level's identity. Collisions are acceptable: the bucket pattern only
// needs to let the network distinguish the handful of level keys that
// co-occur in one workload.
const hashBuckets = 8

// tokenWidth is the per-token feature width. Tokens are padded to a
// common width so one shared embedding layer can project them:
//
//	[0..2]   token-type one-hot (cluster, function, slot)
//	[3..10]  type-specific scalar features
//	[11..34] 3 × hashBuckets level-identity buckets (function/slot tokens)
//	[35..38] match-level one-hot (slot tokens)
const tokenWidth = 3 + 8 + 3*hashBuckets + 4

// Featurizer turns a scheduling decision point into the DQN state: a
// token matrix with one cluster token, one function token and one token
// per candidate container slot.
type Featurizer struct {
	// Slots is the number of container slots n; the action space is
	// Slots+1 (the extra action is the cold start).
	Slots int
	// NormMB normalizes memory features (e.g. the Loose pool size).
	NormMB float64
	// NormTime saturates duration features: f(d) = d/(d+NormTime).
	NormTime time.Duration

	// Workspace: scratch buffers reused across Build calls so a
	// steady-state decision allocates nothing. The State returned by
	// Build aliases x/ids/mask and is only valid until the next Build on
	// the same Featurizer; callers that retain state (replay training)
	// must clone what they keep.
	x      *nn.Tensor
	ids    []int
	mask   []bool
	cands  []candidate
	mcands []pool.MatchCandidate
}

// State is one featurized decision point.
type State struct {
	// X is the [Slots+2, tokenWidth] token matrix.
	X *nn.Tensor
	// Candidates maps slot index to the candidate container's pool ID
	// (-1 for empty slots).
	Candidates []int
	// Mask marks valid actions; length Slots+1. Mask[Slots] (cold
	// start) is always true; slot actions are valid only when a
	// matching container occupies the slot.
	Mask []bool
	// GreedyEst is the estimated startup of the greedy choice: the
	// best-ranked slot when one exists, otherwise the cold start. It
	// serves as the reward baseline for advantage-style learning.
	GreedyEst time.Duration
}

// Actions returns the size of the action space.
func (f *Featurizer) Actions() int { return f.Slots + 1 }

// Tokens returns the number of tokens in a state.
func (f *Featurizer) Tokens() int { return f.Slots + 2 }

// Width returns the per-token feature width.
func (f *Featurizer) Width() int { return tokenWidth }

func satur(d time.Duration, norm time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(d) / float64(d+norm)
}

// levelBuckets writes the three level-identity one-hots for img into
// dst[off:], one hashBuckets-wide group per level: the bucket is the
// image's cached FNV-1a hash of the level key, so no key is hashed per
// decision.
func levelBuckets(dst []float64, off int, img *image.Image) {
	for li, l := range image.Levels {
		if img.LevelKey(l) == "" {
			continue
		}
		dst[off+li*hashBuckets+int(img.LevelHash(l)%hashBuckets)] = 1
	}
}

// candidate pairs a container with its match info for slot ranking.
type candidate struct {
	c     *container.Container
	level core.MatchLevel
	est   time.Duration
}

// Build featurizes a decision point. Candidates are the idle pool
// containers that match the invocation at any level, ranked best-first
// (deeper match level, then lower estimated startup, then most recently
// used, then lower ID) and truncated to Slots. The returned State shares
// the Featurizer's workspace buffers (see the Workspace fields).
func (f *Featurizer) Build(env platform.Env, inv *workload.Invocation) State {
	// The mask's prior knowledge (Section IV-C): no-match containers
	// and warm starts that would cost at least as much as a cold start
	// are manifestly erroneous and are never offered to the network.
	coldEst := container.Estimate(inv.Fn, core.NoMatch, false).Total()
	// The pool's match index hands back exactly the containers a full
	// scan would match; the total-order sort below makes the enumeration
	// order irrelevant.
	f.mcands = env.Pool.AppendMatches(f.mcands[:0], inv.Fn.Image)
	cands := f.cands[:0]
	for _, mc := range f.mcands {
		est := container.Estimate(inv.Fn, mc.Level, mc.C.FnID != inv.Fn.ID).Total()
		if est >= coldEst {
			continue
		}
		cands = append(cands, candidate{c: mc.C, level: mc.Level, est: est})
	}
	// Insertion sort: candidate lists are pool-sized and the ordering
	// must be fully deterministic.
	less := func(a, b candidate) bool {
		if a.level != b.level {
			return a.level > b.level
		}
		if a.est != b.est {
			return a.est < b.est
		}
		if a.c.LastUsedAt != b.c.LastUsedAt {
			return a.c.LastUsedAt > b.c.LastUsedAt
		}
		return a.c.ID < b.c.ID
	}
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && less(cands[j], cands[j-1]); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	f.cands = cands
	if len(cands) > f.Slots {
		cands = cands[:f.Slots]
	}

	tokens := f.Tokens()
	f.x = nn.EnsureTensor(f.x, tokens, tokenWidth)
	x := f.x
	x.Zero()
	normMB := f.NormMB
	if normMB <= 0 {
		normMB = 1024
	}
	normT := f.NormTime
	if normT <= 0 {
		normT = 5 * time.Second
	}

	// Cluster token.
	ct := x.Row(0)
	ct[0] = 1
	ct[3] = float64(env.Pool.Len()) / float64(f.Slots)
	ct[4] = env.Pool.UsedMB() / normMB
	if env.Pool.CapacityMB() > 0 {
		ct[5] = (env.Pool.CapacityMB() - env.Pool.UsedMB()) / normMB
	} else {
		ct[5] = 1
	}
	ct[6] = env.RunningMB / normMB
	ct[7] = env.Rate / 10
	ct[8] = satur(env.Now-env.PrevArrival, normT)
	ct[9] = float64(len(cands)) / float64(f.Slots)

	// Function token.
	ft := x.Row(1)
	ft[1] = 1
	ft[3] = satur(inv.Fn.ColdStartTime(), normT)
	ft[4] = satur(inv.Fn.RuntimeInit, normT)
	ft[5] = satur(inv.Exec, normT)
	ft[6] = inv.Fn.MemoryMB / normMB
	ft[7] = inv.Fn.Image.LevelSizeMB(image.OS) / normMB
	ft[8] = inv.Fn.Image.LevelSizeMB(image.Language) / normMB
	ft[9] = inv.Fn.Image.LevelSizeMB(image.Runtime) / normMB
	levelBuckets(ft, 11, &inv.Fn.Image)

	// Slot tokens.
	if cap(f.ids) < f.Slots {
		f.ids = make([]int, f.Slots)
	}
	if cap(f.mask) < f.Actions() {
		f.mask = make([]bool, f.Actions())
	}
	ids, mask := f.ids[:f.Slots], f.mask[:f.Actions()]
	for i := 0; i < f.Slots; i++ {
		ids[i] = -1
		mask[i] = false
	}
	mask[f.Slots] = true // cold start always valid
	greedyEst := container.Estimate(inv.Fn, core.NoMatch, false).Total()
	if len(cands) > 0 {
		greedyEst = cands[0].est
	}
	for i, cand := range cands {
		st := x.Row(2 + i)
		st[2] = 1
		st[3] = satur(cand.est, normT)
		st[4] = cand.c.MemoryMB / normMB
		st[5] = satur(cand.c.IdleFor(env.Now), normT)
		st[6] = float64(cand.c.UseCount) / 16
		if cand.c.FnID == inv.Fn.ID {
			st[7] = 1
		}
		// Cost of this slot relative to the greedy (best) slot: lets
		// the network rank alternatives directly.
		st[8] = satur(cand.est-greedyEst, normT)
		levelBuckets(st, 11, cand.c.Image)
		st[3+8+3*hashBuckets+int(cand.level)] = 1
		ids[i] = cand.c.ID
		mask[i] = true
	}
	return State{X: x, Candidates: ids, Mask: mask, GreedyEst: greedyEst}
}
