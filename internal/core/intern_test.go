package core

import (
	"testing"

	"mlcr/internal/image"
)

// TestMatchZeroValueImages: the zero Image is the empty image, so it
// matches an image up to that image's first non-empty level.
func TestMatchZeroValueImages(t *testing.T) {
	var zero image.Image
	cases := []struct {
		ct   *image.Image
		want MatchLevel
	}{
		{img("os", "ubuntu", "python", "torch"), NoMatch},
		{img("lang", "", "python", "torch"), MatchL1},
		{img("rt", "", "", "torch"), MatchL2},
		{img("empty", "", "", ""), MatchL3},
	}
	for _, tc := range cases {
		if got := Match(&zero, tc.ct); got != tc.want {
			t.Errorf("Match(zero, %s) = %v, want %v", tc.ct.Name, got, tc.want)
		}
		if got := Match(tc.ct, &zero); got != tc.want {
			t.Errorf("Match(%s, zero) = %v, want %v", tc.ct.Name, got, tc.want)
		}
	}
}

// BenchmarkMatchInterned measures Match: three interned-ID
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
