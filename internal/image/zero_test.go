package image_test

import (
	"testing"

	"mlcr/internal/core"
	"mlcr/internal/image"
)

// TestZeroImageIsEmpty is the zero-value oracle: Image{} must agree
// with NewImage("") on every accessor, so no construction path but
// NewImage needs a fallback.
func TestZeroImageIsEmpty(t *testing.T) {
	var zero image.Image
	empty := image.NewImage("")
	full := image.NewImage("full",
		image.Package{Name: "alpine", Version: "3.18", Level: image.OS, SizeMB: 5, Pull: 1, Install: 2},
		image.Package{Name: "python", Version: "3.9", Level: image.Language, SizeMB: 50, Pull: 3, Install: 4},
	)
	if n := len(zero.Packages()); n != 0 || zero.SizeMB() != 0 {
		t.Fatalf("zero image: %d packages, %v MB", n, zero.SizeMB())
	}
	for _, l := range image.Levels {
		if z, e := zero.AtLevel(l), empty.AtLevel(l); len(z) != 0 || len(e) != 0 {
			t.Errorf("AtLevel(%v): zero %v, empty %v", l, z, e)
		}
		if z, e := zero.LevelKey(l), empty.LevelKey(l); z != "" || e != "" {
			t.Errorf("LevelKey(%v): zero %q, empty %q", l, z, e)
		}
		// An empty level hashes to 0, not KeyHash("").
		if z, e := zero.LevelHash(l), empty.LevelHash(l); z != 0 || e != 0 {
			t.Errorf("LevelHash(%v): zero %#x, empty %#x", l, z, e)
		}
		if z, e := zero.LevelSizeMB(l), empty.LevelSizeMB(l); z != 0 || e != 0 {
			t.Errorf("LevelSizeMB(%v): zero %v, empty %v", l, z, e)
		}
		if z, e := zero.PullTime(l), empty.PullTime(l); z != 0 || e != 0 {
			t.Errorf("PullTime(%v): zero %v, empty %v", l, z, e)
		}
		if z, e := zero.InstallTime(l), empty.InstallTime(l); z != 0 || e != 0 {
			t.Errorf("InstallTime(%v): zero %v, empty %v", l, z, e)
		}
	}
	if z, e := zero.LevelIDs(), empty.LevelIDs(); z != e {
		t.Errorf("LevelIDs: zero %v, empty %v", z, e)
	}
	if a, b := image.Jaccard(zero, empty), image.Jaccard(empty, zero); a != 1 || b != 1 {
		t.Errorf("Jaccard(zero, empty) = %v, Jaccard(empty, zero) = %v, want 1", a, b)
	}
	for _, pair := range [][2]image.Image{{zero, full}, {full, zero}, {empty, full}, {full, empty}} {
		if j := image.Jaccard(pair[0], pair[1]); j != 0 {
			t.Errorf("Jaccard(%q, %q) = %v, want 0", pair[0].Name, pair[1].Name, j)
		}
	}
	if a, b := core.Match(&zero, &empty), core.Match(&empty, &zero); a != core.MatchL3 || b != core.MatchL3 {
		t.Errorf("Match(zero, empty) = %v, Match(empty, zero) = %v, want %v", a, b, core.MatchL3)
	}
}
