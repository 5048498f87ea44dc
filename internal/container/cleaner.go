package container

import (
	"mlcr/internal/core"
	"mlcr/internal/image"
	"mlcr/internal/workload"
)

// Cleaner models the container cleaner of Section III-A. Packages that
// differ between the outgoing and incoming function live on volumes
// (language volumes, runtime-package volumes and user-data volumes); the
// cleaner unmounts the private volumes of the previous function and mounts
// the volumes required by the next one. OS packages live on the container
// writable layer and are never swapped — which is exactly why an OS
// mismatch forces a cold start.
//
// The latency of the swap is charged by the startup model as
// Function.Clean; the Cleaner itself tracks the volume operations so tests
// and reports can audit the security-relevant behaviour: a reused
// container must never retain the previous function's private volumes.
type Cleaner struct {
	repacks   int
	unmounts  int
	mounts    int
	userWipes int

	// OnSwap, when non-nil, observes every repack with its per-operation
	// breakdown — the cleaner-level observability hook.
	OnSwap func(op SwapOp)
}

// SwapOp describes one volume-swap (repack) performed by the Cleaner.
type SwapOp struct {
	// ContainerID is the repacked container.
	ContainerID int
	// FromFn and ToFn are the outgoing and incoming function IDs.
	FromFn, ToFn int
	// Level is the match level the reuse was scheduled at.
	Level core.MatchLevel
	// Unmounts and Mounts count the package volumes swapped (the
	// user-data volume wipe is implicit: one per repack).
	Unmounts, Mounts int
}

// VolumeOps summarizes the work a Cleaner has performed.
type VolumeOps struct {
	Repacks   int // cross-function reuses handled
	Unmounts  int // package volumes detached
	Mounts    int // package volumes attached
	UserWipes int // user-data volumes detached (always 1 per repack)
}

// Ops returns the accumulated volume operation counts.
func (cl *Cleaner) Ops() VolumeOps {
	return VolumeOps{Repacks: cl.repacks, Unmounts: cl.unmounts, Mounts: cl.mounts, UserWipes: cl.userWipes}
}

// Repack swaps the container's volumes for function f reusing it at the
// given match level. Volumes below the matched level are kept (they are
// identical by definition of the match); volumes at mismatched levels are
// unmounted and the new function's volumes mounted. The user-data volume
// is always detached on a cross-function reuse.
func (cl *Cleaner) Repack(c *Container, f *workload.Function, level core.MatchLevel) {
	cl.repacks++
	cl.userWipes++ // user-data volume always swapped across functions

	// Levels above the match point need their volumes swapped. The OS
	// level is on the writable layer, not a volume, so only language and
	// runtime volumes are managed.
	op := SwapOp{ContainerID: c.ID, FromFn: c.FnID, ToFn: f.ID, Level: level}
	swap := func(l image.Level) {
		if len(c.Image.AtLevel(l)) > 0 {
			cl.unmounts++
			op.Unmounts++
		}
		if len(f.Image.AtLevel(l)) > 0 {
			cl.mounts++
			op.Mounts++
		}
	}
	switch level {
	case core.MatchL1:
		swap(image.Language)
		swap(image.Runtime)
	case core.MatchL2:
		swap(image.Runtime)
	case core.MatchL3:
		// Identical package stack: only the user-data volume changes.
	}
	if cl.OnSwap != nil {
		cl.OnSwap(op)
	}
}
