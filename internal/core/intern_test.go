package core

import (
	"testing"

	"mlcr/internal/image"
)

// TestMatchAcrossUniversesFallsBackToKeys: images interned in different
// universes have incomparable IDs, so Match must take the string
// fallback and still return the level the keys define.
func TestMatchAcrossUniversesFallsBackToKeys(t *testing.T) {
	ua, ub := image.NewUniverse(), image.NewUniverse()
	mk := func(u *image.Universe, name, os, lang, rt string) *image.Image {
		im := u.NewImage(name,
			image.Package{Name: os, Version: "1", Level: image.OS, SizeMB: 10},
			image.Package{Name: lang, Version: "1", Level: image.Language, SizeMB: 50},
			image.Package{Name: rt, Version: "1", Level: image.Runtime, SizeMB: 20},
		)
		return &im
	}
	// Interning order differs between the universes, so the same key
	// strings carry different IDs — naive ID comparison would be wrong.
	mk(ua, "warmup", "zzz", "qqq", "vvv")
	fn := mk(ua, "fn", "ubuntu", "python", "torch")
	ct := mk(ub, "ct", "ubuntu", "python", "numpy")
	if got := Match(fn, ct); got != MatchL2 {
		t.Fatalf("cross-universe Match = %v, want %v", got, MatchL2)
	}
	other := mk(ub, "other", "ubuntu", "node", "torch")
	if got := Match(fn, other); got != MatchL1 {
		t.Fatalf("cross-universe Match = %v, want %v", got, MatchL1)
	}
	same := mk(ub, "same", "ubuntu", "python", "torch")
	if got := Match(fn, same); got != MatchL3 {
		t.Fatalf("cross-universe Match = %v, want %v", got, MatchL3)
	}
}

// TestMatchZeroValueImages: images that skipped NewImage have no
// universe; Match must fall back to recomputed keys.
func TestMatchZeroValueImages(t *testing.T) {
	raw := image.Image{Pkgs: []image.Package{{Name: "ubuntu", Version: "1", Level: image.OS}}}
	built := img("c", "ubuntu", "", "")
	if got := Match(&raw, built); got != MatchL3 {
		t.Fatalf("zero-value vs built Match = %v, want %v (all keys equal)", got, MatchL3)
	}
}

// BenchmarkMatchInterned measures the interned fast path: three integer
// comparisons with pruning, no string traffic.
func BenchmarkMatchInterned(b *testing.B) {
	fn := img("fn", "ubuntu", "python", "torch")
	ct := img("ct", "ubuntu", "python", "numpy")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Match(fn, ct)
	}
}
