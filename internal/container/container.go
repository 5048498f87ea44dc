// Package container models serverless sandboxes: their lifecycle, memory
// footprint, the startup-cost model for every match level of multi-level
// container reuse, and the container cleaner that swaps package volumes
// when a container is reused across functions (Section III-A).
package container

import (
	"fmt"
	"time"

	"mlcr/internal/core"
	"mlcr/internal/image"
	"mlcr/internal/workload"
)

// State is the lifecycle state of a container.
type State int

const (
	// Idle means the container is warm and parked in the pool.
	Idle State = iota
	// Busy means the container is starting up or executing a function.
	Busy
	// Dead means the container was evicted or discarded.
	Dead
)

func (s State) String() string {
	switch s {
	case Idle:
		return "idle"
	case Busy:
		return "busy"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Container is one sandbox instance. Fields are managed by the platform;
// schedulers observe them read-only.
type Container struct {
	// ID is unique within a simulation run.
	ID int
	// Image holds the packages currently installed in the container.
	// It changes when the cleaner repacks the container for a different
	// function.
	Image image.Image
	// FnID is the ID of the function that last ran (or is running) here.
	FnID int
	// MemoryMB is the current footprint, charged against pool capacity
	// while idle and against cluster memory while busy.
	MemoryMB float64

	// CreatedAt is when the sandbox was created.
	CreatedAt time.Duration
	// LastUsedAt is when the container last began serving an invocation.
	LastUsedAt time.Duration
	// IdleSince is when the container last became idle (valid in Idle).
	IdleSince time.Duration
	// BusyUntil is when the current invocation completes (valid in Busy).
	BusyUntil time.Duration
	// UseCount is the number of invocations served, including the
	// container-creating one.
	UseCount int

	// PolicyCookie is a bookkeeping slot owned by the pool's eviction
	// policy while the container is pooled (typically the container's
	// index in the policy's heap or ring, enabling allocation-free O(1)
	// removal). Its value is meaningless outside the owning policy.
	PolicyCookie int

	State State
}

// Startup is the per-phase breakdown of one function start, mirroring the
// phases of Figure 1: sandbox creation, volume cleaning, code pulling,
// package installation, runtime initialization and function
// initialization.
type Startup struct {
	// Level is the match level the start was scheduled at; meaningful
	// only when Cold is false.
	Level core.MatchLevel
	// Cold reports whether a fresh sandbox was created.
	Cold bool

	Create       time.Duration
	Clean        time.Duration
	Pull         time.Duration
	Install      time.Duration
	RuntimeInit  time.Duration
	FunctionInit time.Duration
}

// Total is the startup latency: the sum of all phases.
func (s Startup) Total() time.Duration {
	return s.Create + s.Clean + s.Pull + s.Install + s.RuntimeInit + s.FunctionInit
}

// Estimate computes the startup breakdown for starting function f at the
// given match level. crossFunction reports whether the reused container
// last served a different function, which charges the container-cleaner
// overhead (volume unmount + mount). For cold starts pass level NoMatch;
// crossFunction is ignored.
//
// The model (Section II-A, Figure 1):
//
//	cold:    create + pull(L1..L3) + install(L1..L3) + runtimeInit + fnInit
//	L1:      clean  + pull(L2..L3) + install(L2..L3) + runtimeInit + fnInit
//	L2:      clean  + pull(L3)     + install(L3)     + runtimeInit + fnInit
//	L3:      [clean if crossFunction] + fnInit   (runtime already warm)
func Estimate(f *workload.Function, level core.MatchLevel, crossFunction bool) Startup {
	s := Startup{Level: level, FunctionInit: f.FunctionInit}
	switch level {
	case core.NoMatch:
		s.Cold = true
		s.Create = f.Create
		s.RuntimeInit = f.RuntimeInit
		for _, l := range image.Levels {
			s.Pull += f.Image.PullTime(l)
			s.Install += f.Image.InstallTime(l)
		}
	case core.MatchL1:
		s.Clean = f.Clean
		s.RuntimeInit = f.RuntimeInit
		for _, l := range []image.Level{image.Language, image.Runtime} {
			s.Pull += f.Image.PullTime(l)
			s.Install += f.Image.InstallTime(l)
		}
	case core.MatchL2:
		s.Clean = f.Clean
		s.RuntimeInit = f.RuntimeInit
		s.Pull = f.Image.PullTime(image.Runtime)
		s.Install = f.Image.InstallTime(image.Runtime)
	case core.MatchL3:
		if crossFunction {
			s.Clean = f.Clean
		}
	default:
		panic(fmt.Sprintf("container: invalid match level %d", int(level)))
	}
	return s
}

// PulledLevels returns the image levels that must be pulled from the
// registry when starting at the given match level: everything above the
// matched prefix (all three levels for a cold start, none for a full
// match).
func PulledLevels(level core.MatchLevel) []image.Level {
	switch level {
	case core.NoMatch:
		return []image.Level{image.OS, image.Language, image.Runtime}
	case core.MatchL1:
		return []image.Level{image.Language, image.Runtime}
	case core.MatchL2:
		return []image.Level{image.Runtime}
	default:
		return nil
	}
}

// EstimateFor matches f against the container's current image and returns
// the startup breakdown of reusing it. The second result is the match
// level; NoMatch means reuse is pointless and the caller should cold-start.
func EstimateFor(f *workload.Function, c *Container) (Startup, core.MatchLevel) {
	lv := core.Match(f.Image, c.Image)
	if lv == core.NoMatch {
		return Estimate(f, core.NoMatch, false), core.NoMatch
	}
	return Estimate(f, lv, c.FnID != f.ID), lv
}

// NewCold creates a fresh Busy container for invocation inv arriving at
// now, returning the container and its cold-start breakdown.
func NewCold(id int, inv *workload.Invocation, now time.Duration) (*Container, Startup) {
	s := Estimate(inv.Fn, core.NoMatch, false)
	c := &Container{
		ID:         id,
		Image:      inv.Fn.Image,
		FnID:       inv.Fn.ID,
		MemoryMB:   inv.Fn.MemoryMB,
		CreatedAt:  now,
		LastUsedAt: now,
		BusyUntil:  now + s.Total() + inv.Exec,
		UseCount:   1,
		State:      Busy,
	}
	return c, s
}

// Reuse transitions an idle container to Busy for invocation inv at the
// given match level, repacking it with the cleaner when the function
// differs. It returns the startup breakdown. Reusing a non-idle container
// or a NoMatch level panics: both indicate a scheduler bug.
func (c *Container) Reuse(inv *workload.Invocation, level core.MatchLevel, now time.Duration, cl *Cleaner) Startup {
	if c.State != Idle {
		panic(fmt.Sprintf("container %d: Reuse while %v", c.ID, c.State))
	}
	if level == core.NoMatch {
		panic(fmt.Sprintf("container %d: Reuse with NoMatch level", c.ID))
	}
	cross := c.FnID != inv.Fn.ID
	s := Estimate(inv.Fn, level, cross)
	if cross && cl != nil {
		cl.Repack(c, inv.Fn, level)
	}
	c.Image = inv.Fn.Image
	c.FnID = inv.Fn.ID
	c.MemoryMB = inv.Fn.MemoryMB
	c.LastUsedAt = now
	c.BusyUntil = now + s.Total() + inv.Exec
	c.UseCount++
	c.State = Busy
	return s
}

// Complete transitions a busy container back to Idle at time now.
func (c *Container) Complete(now time.Duration) {
	if c.State != Busy {
		panic(fmt.Sprintf("container %d: Complete while %v", c.ID, c.State))
	}
	c.State = Idle
	c.IdleSince = now
}

// Kill marks the container evicted/discarded.
func (c *Container) Kill() { c.State = Dead }

// IdleFor returns how long the container has been idle at time now; zero
// when not idle.
func (c *Container) IdleFor(now time.Duration) time.Duration {
	if c.State != Idle {
		return 0
	}
	return now - c.IdleSince
}
