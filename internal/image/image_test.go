package image

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func pkg(name, ver string, l Level, size float64) Package {
	return Package{Name: name, Version: ver, Level: l, SizeMB: size,
		Pull: time.Duration(size*10) * time.Millisecond, Install: time.Duration(size) * time.Millisecond}
}

func TestNewImageNormalizesOrder(t *testing.T) {
	a := NewImage("a", pkg("python", "3.9", Language, 50), pkg("alpine", "3.18", OS, 5))
	b := NewImage("b", pkg("alpine", "3.18", OS, 5), pkg("python", "3.9", Language, 50))
	if a.LevelKey(OS) != b.LevelKey(OS) || a.LevelKey(Language) != b.LevelKey(Language) {
		t.Fatal("images built from reordered packages have different level keys")
	}
	if a.Packages()[0].Level != OS {
		t.Fatalf("first package level = %v, want OS", a.Packages()[0].Level)
	}
}

func TestLevelKeyDistinguishesVersions(t *testing.T) {
	a := NewImage("a", pkg("python", "3.9", Language, 50))
	b := NewImage("b", pkg("python", "3.11", Language, 52))
	if a.LevelKey(Language) == b.LevelKey(Language) {
		t.Fatal("different versions produced equal level keys")
	}
}

func TestLevelKeyEmptyLevel(t *testing.T) {
	a := NewImage("a", pkg("alpine", "3.18", OS, 5))
	if got := a.LevelKey(Runtime); got != "" {
		t.Fatalf("empty level key = %q, want empty", got)
	}
}

func TestSizeAndTimes(t *testing.T) {
	im := NewImage("a",
		pkg("alpine", "3.18", OS, 5),
		pkg("python", "3.9", Language, 50),
		pkg("flask", "2.0", Runtime, 10),
		pkg("numpy", "1.24", Runtime, 30),
	)
	if got := im.SizeMB(); got != 95 {
		t.Errorf("SizeMB = %v, want 95", got)
	}
	if got := im.LevelSizeMB(Runtime); got != 40 {
		t.Errorf("LevelSizeMB(Runtime) = %v, want 40", got)
	}
	if got := im.PullTime(Runtime); got != 400*time.Millisecond {
		t.Errorf("PullTime(Runtime) = %v, want 400ms", got)
	}
	if got := im.InstallTime(OS); got != 5*time.Millisecond {
		t.Errorf("InstallTime(OS) = %v, want 5ms", got)
	}
}

func TestJaccardIdentical(t *testing.T) {
	a := NewImage("a", pkg("alpine", "3.18", OS, 5), pkg("python", "3.9", Language, 50))
	if got := Jaccard(a, a); got != 1 {
		t.Fatalf("Jaccard(a,a) = %v, want 1", got)
	}
}

func TestJaccardDisjoint(t *testing.T) {
	a := NewImage("a", pkg("alpine", "3.18", OS, 5))
	b := NewImage("b", pkg("debian", "11", OS, 50))
	if got := Jaccard(a, b); got != 0 {
		t.Fatalf("Jaccard disjoint = %v, want 0", got)
	}
}

func TestJaccardPartial(t *testing.T) {
	a := NewImage("a", pkg("alpine", "3.18", OS, 5), pkg("python", "3.9", Language, 50))
	b := NewImage("b", pkg("alpine", "3.18", OS, 5), pkg("node", "18", Language, 40))
	// intersection {alpine}, union {alpine, python, node} => 1/3
	if got := Jaccard(a, b); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("Jaccard = %v, want 1/3", got)
	}
}

func TestJaccardEmptyImages(t *testing.T) {
	if got := Jaccard(Image{}, Image{}); got != 1 {
		t.Fatalf("Jaccard(empty, empty) = %v, want 1", got)
	}
	a := NewImage("a", pkg("alpine", "3.18", OS, 5))
	if got := Jaccard(a, Image{}); got != 0 {
		t.Fatalf("Jaccard(a, empty) = %v, want 0", got)
	}
}

func TestAveragePairwiseJaccard(t *testing.T) {
	a := NewImage("a", pkg("alpine", "3.18", OS, 5))
	b := NewImage("b", pkg("alpine", "3.18", OS, 5))
	c := NewImage("c", pkg("debian", "11", OS, 50))
	// pairs: (a,b)=1, (a,c)=0, (b,c)=0 => 1/3
	if got := AveragePairwiseJaccard([]Image{a, b, c}); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("avg = %v, want 1/3", got)
	}
	if got := AveragePairwiseJaccard([]Image{a}); got != 0 {
		t.Fatalf("avg of one image = %v, want 0", got)
	}
}

func TestSizeVariance(t *testing.T) {
	a := NewImage("a", pkg("x", "1", OS, 10), pkg("y", "1", Language, 20))
	// sizes {10,20}: mean 15, var ((−5)²+5²)/2 = 25
	if got := SizeVariance([]Image{a}); got != 25 {
		t.Fatalf("variance = %v, want 25", got)
	}
	if got := SizeVariance(nil); got != 0 {
		t.Fatalf("variance of nothing = %v, want 0", got)
	}
}

// Properties of Jaccard similarity.
func TestPropertyJaccard(t *testing.T) {
	mk := func(keys []uint8) Image {
		var ps []Package
		seen := map[uint8]bool{}
		for _, k := range keys {
			k %= 20
			if seen[k] {
				continue
			}
			seen[k] = true
			ps = append(ps, pkg(string(rune('a'+k)), "1", Level(int(k)%3+1), float64(k)))
		}
		return NewImage("p", ps...)
	}
	symmetric := func(ka, kb []uint8) bool {
		a, b := mk(ka), mk(kb)
		return Jaccard(a, b) == Jaccard(b, a)
	}
	bounded := func(ka, kb []uint8) bool {
		j := Jaccard(mk(ka), mk(kb))
		return j >= 0 && j <= 1
	}
	reflexive := func(ka []uint8) bool {
		a := mk(ka)
		return Jaccard(a, a) == 1
	}
	for name, f := range map[string]any{"symmetric": symmetric, "bounded": bounded, "reflexive": reflexive} {
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestLevelString(t *testing.T) {
	cases := map[Level]string{OS: "OS", Language: "language", Runtime: "runtime", Level(9): "Level(9)"}
	for l, want := range cases {
		if got := l.String(); got != want {
			t.Errorf("Level(%d).String() = %q, want %q", int(l), got, want)
		}
	}
}
