// Package core implements the paper's primary contribution: multi-level
// matching between a function invocation and warm containers (Table I).
//
// Matching compares the three package levels of the function's image with
// those of a candidate container level-by-level, in order OS → language →
// runtime, and stops ("prunes") at the first level that differs. The
// result is the deepest level at which both images agree on every prefix
// level:
//
//	F.L1 ≠ C.L1                          → NoMatch  (cold start)
//	F.L1 = C.L1, F.L2 ≠ C.L2             → MatchL1
//	F.L1 = C.L1, F.L2 = C.L2, F.L3 ≠ C.L3 → MatchL2
//	all three equal                       → MatchL3  (full match)
package core

import (
	"fmt"

	"mlcr/internal/image"
)

// MatchLevel is the outcome of matching a function against a container.
// Higher values mean more of the container's installed packages can be
// reused and therefore a cheaper startup.
type MatchLevel int

const (
	// NoMatch means the OS level differs; reusing the container would
	// require reinstalling everything, so it is treated as a cold start.
	NoMatch MatchLevel = iota
	// MatchL1 means only the OS level is shared.
	MatchL1
	// MatchL2 means OS and language levels are shared.
	MatchL2
	// MatchL3 is a full match: all three levels are identical.
	MatchL3
)

func (m MatchLevel) String() string {
	switch m {
	case NoMatch:
		return "no-match"
	case MatchL1:
		return "L1-match"
	case MatchL2:
		return "L2-match"
	case MatchL3:
		return "L3-match"
	default:
		return fmt.Sprintf("MatchLevel(%d)", int(m))
	}
}

// Match returns the match level between a function's required image and a
// container's installed image, comparing level-by-level with pruning:
// three compares of interned LevelIDs, no string traffic.
func Match(fn, ct *image.Image) MatchLevel {
	f, c := fn.LevelIDs(), ct.LevelIDs()
	level := NoMatch
	for i := range f {
		if f[i] != c[i] {
			return level // prune: deeper levels cannot be reused
		}
		level++
	}
	return level
}
