package experiments

import (
	"strings"
	"testing"
	"time"

	"mlcr/internal/fstartbench"
	"mlcr/internal/mlcr"
)

// tiny returns a minimal-budget Options for tests: one repeat, a very
// short training run, and a prohibitively large deviation margin so the
// undertrained model behaves exactly like its greedy fallback. These
// tests validate harness shapes; learned-policy quality is covered by
// the mlcr package tests and the full benchmarks.
func tiny() Options {
	o := Options{Seed: 1, Repeats: 1, Episodes: 3}
	o.MLCR.DeviationMargin = 100
	return o
}

func TestFig1Shape(t *testing.T) {
	r := Fig1()
	if len(r.Rows) != 8 { // 4 functions × 2 modes
		t.Fatalf("got %d rows, want 8", len(r.Rows))
	}
	// Every W-mode start must be at least as fast as its C-mode start.
	for i := 0; i < len(r.Rows); i += 2 {
		c, w := r.Rows[i], r.Rows[i+1]
		if c.Mode != "C" || w.Mode != "W" {
			t.Fatalf("row order broken at %d", i)
		}
		if w.Startup.Total() > c.Startup.Total() {
			t.Errorf("%s: W (%v) slower than C (%v)", w.Fn, w.Startup.Total(), c.Startup.Total())
		}
	}
	// The paper reports up to 14×; our calibrated model must show a
	// large spread too.
	if r.MaxSpeedup < 5 {
		t.Errorf("max speedup %.1f, want >= 5", r.MaxSpeedup)
	}
	if !strings.Contains(r.Table().String(), "max speedup") {
		t.Error("table missing caption")
	}
}

func TestFig2GreedySuboptimal(t *testing.T) {
	r := Fig2()
	if r.OptimalTotal >= r.GreedyTotal {
		t.Fatalf("optimal (%v) not better than greedy (%v)", r.OptimalTotal, r.GreedyTotal)
	}
	if len(r.GreedyRows) != 4 {
		t.Fatalf("got %d rows", len(r.GreedyRows))
	}
	if !strings.Contains(r.Table().String(), "greedy total") {
		t.Error("table missing caption")
	}
}

func TestFig3Calibration(t *testing.T) {
	r := Fig3(1)
	if r.TopOSShare < 0.72 || r.TopOSShare > 0.82 {
		t.Fatalf("top-4 OS share %.3f, want ≈ 0.77", r.TopOSShare)
	}
	if len(r.TopBases) == 0 || len(r.TopLanguages) == 0 {
		t.Fatal("missing top entries")
	}
	if r.TopBases[0].Name != "ubuntu" {
		t.Errorf("most popular base = %q, want ubuntu", r.TopBases[0].Name)
	}
	out := r.Table().String()
	if !strings.Contains(out, "ubuntu") || !strings.Contains(out, "python") {
		t.Error("table missing entries")
	}
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	r := NewStudy(tiny()).Fig8()
	if len(r.Cells) != len(PolicyNames)*len(OverallPools) {
		t.Fatalf("got %d cells", len(r.Cells))
	}
	if r.LooseMB <= 0 {
		t.Fatal("Loose not calibrated")
	}
	for _, pool := range []string{"Tight", "Moderate", "Loose"} {
		for _, p := range PolicyNames {
			c := r.Cell(p, pool)
			if c == nil || c.TotalStartup <= 0 {
				t.Fatalf("missing/empty cell %s/%s", p, pool)
			}
		}
	}
	// Larger pools must never increase a policy's latency dramatically;
	// in particular every policy improves from Tight to Loose.
	for _, p := range PolicyNames {
		tight := r.Cell(p, "Tight").TotalStartup
		loose := r.Cell(p, "Loose").TotalStartup
		if loose > tight {
			t.Errorf("%s: Loose (%v) worse than Tight (%v)", p, loose, tight)
		}
	}
	// MLCR (with its greedy fallback) must beat the plain KeepAlive
	// policy when warm resources are contended; at Loose every policy
	// converges (nothing is ever evicted), so allow a small tolerance.
	for _, pool := range []string{"Tight", "Moderate"} {
		if m, k := r.Cell("MLCR", pool), r.Cell("KeepAlive", pool); m.TotalStartup >= k.TotalStartup {
			t.Errorf("%s: MLCR (%v) not better than KeepAlive (%v)", pool, m.TotalStartup, k.TotalStartup)
		}
	}
	if m, k := r.Cell("MLCR", "Loose"), r.Cell("KeepAlive", "Loose"); float64(m.TotalStartup) > 1.05*float64(k.TotalStartup) {
		t.Errorf("Loose: MLCR (%v) much worse than KeepAlive (%v)", m.TotalStartup, k.TotalStartup)
	}
	if !strings.Contains(r.Table().String(), "Loose pool") {
		t.Error("table missing caption")
	}
}

func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	r := NewStudy(tiny()).Fig9(100)
	if len(r.Points) < 4 {
		t.Fatalf("got %d points", len(r.Points))
	}
	last := r.Points[len(r.Points)-1]
	if last.Invocations != 400 {
		t.Fatalf("last point at %d invocations", last.Invocations)
	}
	// Cumulative curves are monotone.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].GreedyLat < r.Points[i-1].GreedyLat || r.Points[i].MLCRLat < r.Points[i-1].MLCRLat {
			t.Fatal("cumulative latency not monotone")
		}
	}
	if last.GreedyLat != r.GreedyTotal || last.MLCRLat != r.MLCRTotal {
		t.Fatal("totals disagree with final cumulative point")
	}
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	r := NewStudy(tiny()).Fig10()
	if len(r.Rows) != 5 {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.PeakPoolMB <= 0 || row.PeakPoolMB > r.LooseMB+1e-6 {
			t.Errorf("%s: peak pool %v outside (0, %v]", row.Policy, row.PeakPoolMB, r.LooseMB)
		}
	}
	// KeepAlive rejects rather than evicts.
	for _, row := range r.Rows {
		if row.Policy == "KeepAlive" && row.Evictions != 0 {
			t.Errorf("KeepAlive evicted %d times", row.Evictions)
		}
	}
}

func TestFig11SimilarityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	r := NewStudy(tiny()).Fig11("similarity")
	if len(r.Cells) != 2*len(PolicyNames) {
		t.Fatalf("got %d cells", len(r.Cells))
	}
	// HI-Sim must be easier (lower latency) than LO-Sim for every policy.
	for _, p := range PolicyNames {
		hi := r.Cell(fstartbench.HiSim, p)
		lo := r.Cell(fstartbench.LoSim, p)
		if hi == nil || lo == nil {
			t.Fatalf("missing cells for %s", p)
		}
		if hi.MeanTotal >= lo.MeanTotal {
			t.Errorf("%s: HI-Sim (%v) not faster than LO-Sim (%v)", p, hi.MeanTotal, lo.MeanTotal)
		}
	}
	if !strings.Contains(r.Table().String(), "HI-Sim") {
		t.Error("table missing workloads")
	}
}

func TestFig11UnknownGroupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown group did not panic")
		}
	}()
	NewStudy(tiny()).Fig11("nope")
}

func TestOverheadMeasures(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	r := NewStudy(tiny()).Overhead()
	if r.Decisions != 400 {
		t.Fatalf("timed %d decisions, want 400", r.Decisions)
	}
	if r.MeanInference <= 0 || r.MeanInference > 50*time.Millisecond {
		t.Fatalf("mean inference %v implausible", r.MeanInference)
	}
	if r.MeanSavingWarm <= 0 {
		t.Fatal("no warm-start savings measured")
	}
}

func TestOptimalTotalTrivial(t *testing.T) {
	w := fig2Workload()
	w.Invocations = w.Invocations[:1]
	// One invocation, empty pool: optimal = its cold start.
	want := w.Invocations[0].Fn.ColdStartTime()
	if got := OptimalTotal(w, 4096); got != want {
		t.Fatalf("OptimalTotal = %v, want %v", got, want)
	}
}

func TestCalibrateLooseDeterministic(t *testing.T) {
	w := fstartbench.BuildOverall(5, fstartbench.OverallOptions{Count: 100})
	a, b := CalibrateLoose(w), CalibrateLoose(w)
	if a != b || a <= 0 {
		t.Fatalf("CalibrateLoose = %v, %v", a, b)
	}
}

func TestTrainMLCRReturnsInferenceMode(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	w := fstartbench.Build(fstartbench.Uniform, 1, fstartbench.Options{Count: 60})
	loose := CalibrateLoose(w)
	s := TrainMLCR(w, loose, []float64{0.5, 1}, Options{Seed: 1, Episodes: 2})
	// Two identical inference runs must agree (no residual exploration).
	res := RunAll([]Setup{MLCRSetup(s), MLCRSetup(s)}, w, loose, Options{})
	a, b := res[0], res[1]
	if a.Metrics.TotalStartup() != b.Metrics.TotalStartup() {
		t.Fatal("trained scheduler still stochastic")
	}
}

// TestOptionsDefaults: Options fill only the harness fields, and
// TrainConfig is the one resolution of a trained model's configuration:
// mlcr's defaults plus the seed, the memory norm at half of Loose and
// the ε decay over 2/3 of the budget (at least one episode).
func TestOptionsDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.Seed != 1 || o.Repeats != 3 || o.Episodes != 36 || o.MLCR != (mlcr.Config{}) {
		t.Fatalf("defaults: %+v", o)
	}
	want := mlcr.Config{Seed: 1, NormMB: 500, EpsilonDecayEpisodes: 24}.WithDefaults()
	if c := TrainConfig(1000, Options{}); c != want || c.Slots != 4 || c.Dim != 24 || c.Hidden != 48 || c.DeviationMargin != 0.1 {
		t.Fatalf("TrainConfig = %+v, want %+v", c, want)
	}
	if c := TrainConfig(1000, Options{Episodes: 1}); c.EpsilonDecayEpisodes != 1 {
		t.Fatalf("one-episode budget decays over %d episodes, want 1", c.EpsilonDecayEpisodes)
	}
	o = Options{Seed: 2}
	o.MLCR.NormMB, o.MLCR.Seed = 64, 9
	if c := TrainConfig(1000, o); c.NormMB != 64 || c.Seed != 9 {
		t.Fatalf("explicit NormMB/Seed overwritten: %+v", c)
	}
}
