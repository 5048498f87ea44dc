package core

import (
	"testing"
	"testing/quick"

	"mlcr/internal/image"
)

func img(name string, os, lang, rt string) *image.Image {
	var ps []image.Package
	if os != "" {
		ps = append(ps, image.Package{Name: os, Version: "1", Level: image.OS, SizeMB: 10})
	}
	if lang != "" {
		ps = append(ps, image.Package{Name: lang, Version: "1", Level: image.Language, SizeMB: 50})
	}
	if rt != "" {
		ps = append(ps, image.Package{Name: rt, Version: "1", Level: image.Runtime, SizeMB: 20})
	}
	im := image.NewImage(name, ps...)
	return &im
}

// TestMatchLevels verifies every row of Table I.
func TestMatchLevels(t *testing.T) {
	fn := img("fn", "ubuntu", "python", "torch")
	cases := []struct {
		name string
		ct   *image.Image
		want MatchLevel
	}{
		{"different OS", img("c", "alpine", "python", "torch"), NoMatch},
		{"same OS, different language", img("c", "ubuntu", "node", "torch"), MatchL1},
		{"same OS+lang, different runtime", img("c", "ubuntu", "python", "numpy"), MatchL2},
		{"identical", img("c", "ubuntu", "python", "torch"), MatchL3},
	}
	for _, tc := range cases {
		if got := Match(fn, tc.ct); got != tc.want {
			t.Errorf("%s: Match = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestMatchEmptyLevels(t *testing.T) {
	// Function with no runtime packages (e.g. FStartBench F9 C++ app).
	fn := img("fn", "centos", "gcc", "")
	if got := Match(fn, img("c", "centos", "gcc", "")); got != MatchL3 {
		t.Errorf("empty runtime levels should fully match, got %v", got)
	}
	if got := Match(fn, img("c", "centos", "gcc", "boost")); got != MatchL2 {
		t.Errorf("empty vs non-empty runtime = %v, want MatchL2", got)
	}
}

// Property: match level is monotone — a full match implies equal images at
// every level, and the level reported never exceeds the number of equal
// prefix levels.
func TestPropertyMatchPrefix(t *testing.T) {
	f := func(a, b, c, d, e, g uint8) bool {
		names := []string{"u", "v"}
		fn := img("f", names[a%2], names[b%2], names[c%2])
		ct := img("c", names[d%2], names[e%2], names[g%2])
		lv := Match(fn, ct)
		eq := 0
		for _, l := range image.Levels {
			if fn.LevelKey(l) != ct.LevelKey(l) {
				break
			}
			eq++
		}
		return int(lv) == eq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
