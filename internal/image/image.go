// Package image models container images as three-level package sets, the
// core data structure behind Multi-Level Container Reuse (MLCR).
//
// A function image usually contains many packages (several to several
// hundred). Following Section IV-A of the paper, every package belongs to
// one of three levels:
//
//	L1 — operating-system packages (the base image),
//	L2 — language packages (interpreter/compiler and standard toolchain),
//	L3 — runtime packages (application-specific libraries).
//
// Two images match at level k when their package lists are equal at every
// level up to and including k; the comparison is performed level-by-level
// and prunes as soon as a level differs (Table I).
package image

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Level identifies one of the three package levels.
type Level int

const (
	// OS is the base operating-system level (L1).
	OS Level = iota + 1
	// Language is the language/toolchain level (L2).
	Language
	// Runtime is the application-specific runtime level (L3).
	Runtime
)

// Levels lists the three levels in matching order.
var Levels = [3]Level{OS, Language, Runtime}

func (l Level) String() string {
	switch l {
	case OS:
		return "OS"
	case Language:
		return "language"
	case Runtime:
		return "runtime"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Package is a single installable unit inside an image, together with the
// cost model used by the simulator: how long it takes to pull its bytes
// from a registry and to install it into a container.
type Package struct {
	Name    string
	Version string
	Level   Level
	// SizeMB is the on-disk size of the package in megabytes. It drives
	// both pull time and the memory footprint of warm containers.
	SizeMB float64
	// Pull is the time to fetch the package from the code registry.
	Pull time.Duration
	// Install is the time to unpack/configure the package in a container.
	Install time.Duration
}

// Key returns the identity of a package: name plus version. Two packages
// with the same Key are interchangeable across images.
func (p Package) Key() string { return p.Name + "@" + p.Version }

// Image is a container image described by its three package levels.
// The zero value is an empty image, but real images must be built with
// NewImage (or Universe.NewImage): construction normalizes package
// order, caches the canonical level keys and interns them to dense
// LevelIDs — zero-value images recompute (and allocate) keys on every
// comparison. mlcr-vet's newimage analyzer flags zero-value
// construction in internal/ code.
type Image struct {
	// Name is a human-readable identifier (e.g. "fn13-ml-inference").
	Name string
	// Pkgs holds all packages; order within a level is irrelevant for
	// matching (levels are compared as sets) but kept stable for display.
	Pkgs []Package

	// levelKeys caches the canonical per-level identity strings and
	// levelIDs their dense interned form in uni; level matching is the
	// simulator's hottest path. Zero-value Images (uni == nil, keysSet
	// false) compute keys on demand.
	levelKeys [3]string
	levelIDs  [3]LevelID
	uni       *Universe
	keysSet   bool

	// levelOff marks the level boundaries in the sorted Pkgs slice:
	// level l occupies Pkgs[levelOff[l-1]:levelOff[l]]. Lets AtLevel
	// return a shared subslice instead of allocating per call.
	levelOff [4]int

	// Per-level cost sums, cached because startup estimation reads
	// them on every scheduling decision and completion.
	levelPull    [3]time.Duration
	levelInstall [3]time.Duration
	levelSize    [3]float64

	// keySet caches the distinct package keys across all levels, sorted,
	// for merge-based set operations (Jaccard).
	keySet []string
}

// NewImage builds an image in the default universe and normalizes
// package order (by level, then key) so that images constructed from
// differently-ordered slices compare equal.
func NewImage(name string, pkgs ...Package) Image {
	return DefaultUniverse.NewImage(name, pkgs...)
}

// newNormalized is the shared construction path: it copies and sorts
// the packages, caches the canonical level keys and the sorted distinct
// key set. Interning is the caller's (the universe's) job.
func newNormalized(name string, pkgs []Package) Image {
	cp := make([]Package, len(pkgs))
	copy(cp, pkgs)
	sort.Slice(cp, func(i, j int) bool {
		if cp[i].Level != cp[j].Level {
			return cp[i].Level < cp[j].Level
		}
		return cp[i].Key() < cp[j].Key()
	})
	im := Image{Name: name, Pkgs: cp}
	for i, l := range Levels {
		for im.levelOff[i] < len(cp) && cp[im.levelOff[i]].Level < l {
			im.levelOff[i]++
		}
		im.levelOff[i+1] = im.levelOff[i]
		for im.levelOff[i+1] < len(cp) && cp[im.levelOff[i+1]].Level == l {
			im.levelOff[i+1]++
		}
	}
	for i, l := range Levels {
		im.levelKeys[i] = im.computeLevelKey(l)
	}
	for _, p := range cp {
		if p.Level >= OS && p.Level <= Runtime {
			im.levelPull[p.Level-1] += p.Pull
			im.levelInstall[p.Level-1] += p.Install
			im.levelSize[p.Level-1] += p.SizeMB
		}
	}
	im.keysSet = true
	keys := make([]string, len(cp))
	for i, p := range cp {
		keys[i] = p.Key()
	}
	sort.Strings(keys)
	im.keySet = keys[:0]
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			im.keySet = append(im.keySet, k)
		}
	}
	return im
}

// AtLevel returns the packages of one level, in normalized order. For
// NewImage-built images this is a subslice of Pkgs (no allocation —
// container repacking calls it on every reuse); callers must not
// mutate it. Zero-value images fall back to a filtering copy.
func (im Image) AtLevel(l Level) []Package {
	if im.keysSet && l >= OS && l <= Runtime {
		return im.Pkgs[im.levelOff[l-1]:im.levelOff[l]]
	}
	var out []Package
	for _, p := range im.Pkgs {
		if p.Level == l {
			out = append(out, p)
		}
	}
	return out
}

// LevelKey returns a canonical string identifying the package set of one
// level. Two images share a level exactly when their LevelKeys are equal.
func (im Image) LevelKey(l Level) string {
	if im.keysSet {
		return im.levelKeys[int(l)-1]
	}
	return im.computeLevelKey(l)
}

func (im Image) computeLevelKey(l Level) string {
	ps := im.AtLevel(l)
	keys := make([]string, len(ps))
	for i, p := range ps {
		keys[i] = p.Key()
	}
	return strings.Join(keys, ",")
}

// LevelSizeMB returns the total package size of one level.
func (im Image) LevelSizeMB(l Level) float64 {
	if im.keysSet && l >= OS && l <= Runtime {
		return im.levelSize[l-1]
	}
	var s float64
	for _, p := range im.Pkgs {
		if p.Level == l {
			s += p.SizeMB
		}
	}
	return s
}

// SizeMB returns the total size of all packages in the image.
func (im Image) SizeMB() float64 {
	var s float64
	for _, p := range im.Pkgs {
		s += p.SizeMB
	}
	return s
}

// PullTime returns the total time to pull every package at the given
// level from the registry.
func (im Image) PullTime(l Level) time.Duration {
	if im.keysSet && l >= OS && l <= Runtime {
		return im.levelPull[l-1]
	}
	var d time.Duration
	for _, p := range im.Pkgs {
		if p.Level == l {
			d += p.Pull
		}
	}
	return d
}

// InstallTime returns the total time to install every package at the
// given level.
func (im Image) InstallTime(l Level) time.Duration {
	if im.keysSet && l >= OS && l <= Runtime {
		return im.levelInstall[l-1]
	}
	var d time.Duration
	for _, p := range im.Pkgs {
		if p.Level == l {
			d += p.Install
		}
	}
	return d
}

// PackageSet returns the set of package keys across all levels.
func (im Image) PackageSet() map[string]bool {
	s := make(map[string]bool, len(im.Pkgs))
	for _, p := range im.Pkgs {
		s[p.Key()] = true
	}
	return s
}

// Jaccard computes the Jaccard similarity coefficient |A∩B|/|A∪B| between
// the package sets of two images (Section V, Metric 1). Two empty images
// have similarity 1.
//
// For NewImage-built images the sets are intersected by merging the
// cached sorted key slices — no per-pair map allocation, which matters
// because workload labeling evaluates O(n²) pairs. Zero-value images
// fall back to the map-based computation.
func Jaccard(a, b Image) float64 {
	if !a.keysSet || !b.keysSet {
		return jaccardMaps(a, b)
	}
	ka, kb := a.keySet, b.keySet
	if len(ka) == 0 && len(kb) == 0 {
		return 1
	}
	inter := 0
	for i, j := 0, 0; i < len(ka) && j < len(kb); {
		switch {
		case ka[i] == kb[j]:
			inter++
			i++
			j++
		case ka[i] < kb[j]:
			i++
		default:
			j++
		}
	}
	union := len(ka) + len(kb) - inter
	return float64(inter) / float64(union)
}

// jaccardMaps is the allocating fallback for images that skipped
// NewImage normalization (their package order is unknown).
func jaccardMaps(a, b Image) float64 {
	sa, sb := a.PackageSet(), b.PackageSet()
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for k := range sa {
		if sb[k] {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	return float64(inter) / float64(union)
}

// AveragePairwiseJaccard returns the mean Jaccard similarity over all
// unordered pairs of distinct images. It returns 0 for fewer than two
// images.
func AveragePairwiseJaccard(images []Image) float64 {
	n := len(images)
	if n < 2 {
		return 0
	}
	var sum float64
	pairs := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sum += Jaccard(images[i], images[j])
			pairs++
		}
	}
	return sum / float64(pairs)
}

// SizeVariance returns the population variance of the individual package
// sizes across the given images (Section V, Metric 2). Packages appearing
// in several images are counted once per image, matching the paper's
// per-workload accounting.
func SizeVariance(images []Image) float64 {
	var sizes []float64
	for _, im := range images {
		for _, p := range im.Pkgs {
			sizes = append(sizes, p.SizeMB)
		}
	}
	if len(sizes) == 0 {
		return 0
	}
	var mean float64
	for _, s := range sizes {
		mean += s
	}
	mean /= float64(len(sizes))
	var v float64
	for _, s := range sizes {
		d := s - mean
		v += d * d
	}
	return v / float64(len(sizes))
}
