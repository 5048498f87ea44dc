package experiments

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"mlcr/internal/report"
)

type tabler interface{ Table() *report.Table }

// studyFigures lists the trained figures of one study, in the order
// mlcr-bench -fig all runs them (Fig 11 as its similarity panel).
func studyFigures(s *Study) []struct {
	name string
	run  func() tabler
} {
	return []struct {
		name string
		run  func() tabler
	}{
		{"fig8", func() tabler { return s.Fig8() }},
		{"fig9", func() tabler { return s.Fig9(50) }},
		{"fig10", func() tabler { return s.Fig10() }},
		{"fig11-similarity", func() tabler { return s.Fig11("similarity") }},
		{"overhead", func() tabler { return s.Overhead() }},
		{"ablation", func() tabler { return s.Ablation() }},
	}
}

// TestFigureTablesPinned pins every trained figure at Repeats 2 with the
// default margin: the sha256 of its rendered table and of its full
// result (every field at full precision). The default margin matters:
// tiny()'s margin of 100 makes the untuned ablation variants act as the
// greedy fallback, so a wrong model there would go unseen. The overhead
// table is left out, because its inference cells are wall-clock times.
func TestFigureTablesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("training runs")
	}
	want := map[string][2]string{
		"fig8":             {"1a205c6916b933913064e9b4701d4146245824c16b658532a9b81f7aaad38a94", "0b10e2c91ef15dfeac02a509cb840e512b94aa412755179b4bc1ce7948463a3b"},
		"fig9":             {"bef12bbc069d3de4ea8c056b73a3e9885ad9d45f9182c2098d75686dda783fb9", "e7d671732f8312b9853f68e2860b3c515cec23d233542d84d6e775ababa073cb"},
		"fig10":            {"d25423c430e0d7740f6db69ed562c992fdd49ccb8de378aad8cba0dab8635bfd", "1f0bcaaeb7e738892939406b0916593f1016d7a0e92c2f249c46e5ff7c6385c7"},
		"fig11-similarity": {"3d18b135931e658e26bab12905abcaf9ad319ac1004e319d326ac7584a0e8e8a", "4be52130f2c3d545c3d11f1603171589f32b2169aec33fd426fd4f713515ac21"},
		"ablation":         {"72d27bcfc54980d1cbace4d6ace6ed4cfc74e4aeba26c66078108ce88d4a0b10", "1f7bbcb4a62f582e29722cb6e802e81347e623a47b267ab0a37bb1db6fbc228c"},
	}
	for _, f := range studyFigures(NewStudy(Options{Seed: 1, Repeats: 2, Episodes: 3})) {
		pin, ok := want[f.name]
		if !ok {
			continue
		}
		r := f.run()
		table := fmt.Sprintf("%x", sha256.Sum256([]byte(r.Table().String())))
		full := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", r))))
		if table != pin[0] || full != pin[1] {
			t.Errorf("%s: table sha256 %s, result sha256 %s; want %s, %s\n%s",
				f.name, table, full, pin[0], pin[1], r.Table())
		}
	}
}

// TestStudyTrainsEachModelOnce: Fig 8's only repeat, Fig 9, Fig 10,
// Overhead and the ablation's MLCR/full share one model, and the other
// three ablation variants add one each. A second study trains afresh
// and renders the same tables. Fig 8 at two repeats and parallelism 2
// drives the memo from concurrent repeats under -race.
func TestStudyTrainsEachModelOnce(t *testing.T) {
	o := Options{Seed: 1, Repeats: 2, Episodes: 1, Parallelism: 2}
	s := NewStudy(o)
	s.Fig8()
	if got := len(s.models); got != 2 {
		t.Fatalf("Fig 8 at 2 repeats trained %d models, want 2", got)
	}
	if testing.Short() {
		return
	}

	o.Repeats = 1
	var tables [2][]string
	for i := range tables {
		s := NewStudy(o)
		for _, f := range studyFigures(s) {
			if f.name == "fig11-similarity" {
				continue
			}
			r := f.run()
			if oh, ok := r.(OverheadResult); ok { // wall-clock cells
				r = OverheadResult{Decisions: oh.Decisions, MeanSavingWarm: oh.MeanSavingWarm}
			}
			tables[i] = append(tables[i], r.Table().String())
		}
		if got := len(s.models); got != 4 {
			t.Fatalf("study %d trained %d models, want 4", i, got)
		}
	}
	for j := range tables[0] {
		if tables[0][j] != tables[1][j] {
			t.Errorf("two studies disagree:\n%s\n%s", tables[0][j], tables[1][j])
		}
	}
}
