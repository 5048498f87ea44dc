package fstartbench

import (
	"testing"
	"time"

	"mlcr/internal/core"
	"mlcr/internal/image"
	"mlcr/internal/workload"
)

func TestThirteenFunctionsValid(t *testing.T) {
	fns := Functions()
	if len(fns) != 13 {
		t.Fatalf("got %d functions, want 13", len(fns))
	}
	for i, f := range fns {
		if f.ID != i+1 {
			t.Errorf("function %d has ID %d", i, f.ID)
		}
		if err := f.Validate(); err != nil {
			t.Errorf("function %d invalid: %v", f.ID, err)
		}
	}
}

// TestFunctionsSharesOneCatalogue: every call hands out fresh function
// structs that callers may mutate, over one shared set of image arrays.
func TestFunctionsSharesOneCatalogue(t *testing.T) {
	a, b := Functions(), Functions()
	for i := range a {
		if a[i] == b[i] {
			t.Fatalf("function %d: both calls returned the same *Function", a[i].ID)
		}
		if &a[i].Image.Packages()[0] != &b[i].Image.Packages()[0] {
			t.Fatalf("function %d: image packages were rebuilt, not shared", a[i].ID)
		}
	}
	want := *b[0]
	a[0].ID, a[0].Name, a[0].Exec = 99, "mutated", time.Hour
	if b[0].ID != want.ID || b[0].Name != want.Name || b[0].Exec != want.Exec {
		t.Fatalf("mutating one call's function leaked into another's: %d %q %v", b[0].ID, b[0].Name, b[0].Exec)
	}
	if c := Functions()[0]; c.ID != want.ID || c.Name != want.Name || c.Exec != want.Exec {
		t.Fatalf("mutating a returned function changed the catalogue: %d %q %v", c.ID, c.Name, c.Exec)
	}
}

// TestTableII checks the OS/language/runtime composition of Table II.
func TestTableII(t *testing.T) {
	fns := Functions()
	wantOS := map[int]string{
		1: "alpine-baselayout", 2: "alpine-baselayout", 3: "alpine-baselayout",
		4: "alpine-baselayout", 5: "debian-base", 6: "debian-base", 7: "debian-base",
		8: "debian-base", 9: "centos-base", 10: "debian-base", 11: "alpine-baselayout",
		12: "alpine-baselayout", 13: "debian-base",
	}
	for id, base := range wantOS {
		f := ByID(fns, id)
		found := false
		for _, p := range f.Image.AtLevel(image.OS) {
			if p.Name == base {
				found = true
			}
		}
		if !found {
			t.Errorf("function %d missing base %q", id, base)
		}
	}
	// Same-stack pairs of Table II: (1,12) Java/Springboot and
	// (2,11) Node/Express are full L3 matches across functions.
	if lv := core.Match(&ByID(fns, 1).Image, &ByID(fns, 12).Image); lv != core.MatchL3 {
		t.Errorf("F1 vs F12 match = %v, want MatchL3", lv)
	}
	if lv := core.Match(&ByID(fns, 2).Image, &ByID(fns, 11).Image); lv != core.MatchL3 {
		t.Errorf("F2 vs F11 match = %v, want MatchL3", lv)
	}
	// F5 and F10 share Debian/Python/Flask.
	if lv := core.Match(&ByID(fns, 5).Image, &ByID(fns, 10).Image); lv != core.MatchL3 {
		t.Errorf("F5 vs F10 match = %v, want MatchL3", lv)
	}
	// F6 extends F5's stack at the runtime level only.
	if lv := core.Match(&ByID(fns, 6).Image, &ByID(fns, 5).Image); lv != core.MatchL2 {
		t.Errorf("F6 vs F5 match = %v, want MatchL2", lv)
	}
	// F4 (Alpine) vs F5 (Debian): same language stack but OS mismatch.
	if lv := core.Match(&ByID(fns, 4).Image, &ByID(fns, 5).Image); lv != core.NoMatch {
		t.Errorf("F4 vs F5 match = %v, want NoMatch", lv)
	}
}

func TestColdStartDominatedByPull(t *testing.T) {
	// Section II-A: code pulling is 47%–89% of cold-start latency.
	for _, f := range Functions() {
		var pull time.Duration
		for _, l := range image.Levels {
			pull += f.Image.PullTime(l)
		}
		frac := float64(pull) / float64(f.ColdStartTime())
		if frac < 0.4 || frac > 0.95 {
			t.Errorf("function %d: pull fraction %.2f outside [0.4, 0.95]", f.ID, frac)
		}
	}
}

func TestRuntimeInitCompiledVsInterpreted(t *testing.T) {
	fns := Functions()
	java := ByID(fns, 1)
	python := ByID(fns, 4)
	// Section II-A: compiled runtimes pay far larger init (≈45% vs 6%).
	if java.RuntimeInit <= 4*python.RuntimeInit {
		t.Errorf("java init %v not ≫ python init %v", java.RuntimeInit, python.RuntimeInit)
	}
}

func TestColdStartVsExecRange(t *testing.T) {
	// Cold start is 1.3×–166× the execution time (Section II-A).
	for _, f := range Functions() {
		ratio := float64(f.ColdStartTime()) / float64(f.Exec)
		if ratio < 1.3 || ratio > 600 {
			t.Errorf("function %d: cold/exec ratio %.1f outside plausible range", f.ID, ratio)
		}
	}
}

func TestSimilarityOrdering(t *testing.T) {
	fns := Functions()
	lo := image.AveragePairwiseJaccard(imagesOf(Pick(fns, TypeSet(LoSim)...)))
	hi := image.AveragePairwiseJaccard(imagesOf(Pick(fns, TypeSet(HiSim)...)))
	if lo >= hi {
		t.Fatalf("LO-Sim similarity %.3f not below HI-Sim %.3f", lo, hi)
	}
	// Coarse calibration bands around the paper's 0.29 / 0.52.
	if lo < 0.08 || lo > 0.40 {
		t.Errorf("LO-Sim similarity %.3f outside [0.08, 0.40]", lo)
	}
	if hi < 0.35 || hi > 0.70 {
		t.Errorf("HI-Sim similarity %.3f outside [0.35, 0.70]", hi)
	}
}

func TestVarianceOrdering(t *testing.T) {
	fns := Functions()
	lo := image.SizeVariance(imagesOf(Pick(fns, TypeSet(LoVar)...)))
	hi := image.SizeVariance(imagesOf(Pick(fns, TypeSet(HiVar)...)))
	if lo >= hi {
		t.Fatalf("LO-Var variance %.0f not below HI-Var %.0f", lo, hi)
	}
}

func imagesOf(fns []*workload.Function) []image.Image {
	out := make([]image.Image, len(fns))
	for i, f := range fns {
		out[i] = f.Image
	}
	return out
}

func TestBuildWorkloadsValid(t *testing.T) {
	for _, name := range Names {
		w := Build(name, 1, Options{})
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if len(w.Invocations) != 300 {
			t.Errorf("%s: %d invocations, want 300", name, len(w.Invocations))
		}
		if len(w.Functions) != 5 {
			t.Errorf("%s: %d function types, want 5", name, len(w.Functions))
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := Build(Random, 7, Options{})
	b := Build(Random, 7, Options{})
	for i := range a.Invocations {
		if a.Invocations[i].Arrival != b.Invocations[i].Arrival ||
			a.Invocations[i].Fn.ID != b.Invocations[i].Fn.ID {
			t.Fatal("same seed produced different workloads")
		}
	}
	c := Build(Random, 8, Options{})
	same := true
	for i := range a.Invocations {
		if a.Invocations[i].Arrival != c.Invocations[i].Arrival {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestUniformWorkloadSpansWindow(t *testing.T) {
	w := Build(Uniform, 1, Options{})
	last := w.Invocations[len(w.Invocations)-1].Arrival
	if last != 6*time.Minute {
		t.Fatalf("last uniform arrival = %v, want 6m", last)
	}
	// 50 invocations per minute.
	perMin := 0
	for _, inv := range w.Invocations {
		if inv.Arrival <= time.Minute {
			perMin++
		}
	}
	if perMin != 50 {
		t.Fatalf("first minute has %d invocations, want 50", perMin)
	}
}

func TestPeakWorkloadAlternates(t *testing.T) {
	w := Build(Peak, 1, Options{})
	count := func(lo, hi time.Duration) int {
		n := 0
		for _, inv := range w.Invocations {
			if inv.Arrival > lo && inv.Arrival <= hi {
				n++
			}
		}
		return n
	}
	if got := count(0, time.Minute); got != 80 {
		t.Fatalf("peak minute = %d invocations, want 80", got)
	}
	if got := count(time.Minute, 2*time.Minute); got != 20 {
		t.Fatalf("valley minute = %d invocations, want 20", got)
	}
}

func TestBuildOverall(t *testing.T) {
	w := BuildOverall(3, OverallOptions{})
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(w.Invocations) != 400 {
		t.Fatalf("%d invocations, want 400", len(w.Invocations))
	}
	if len(w.Functions) != 13 {
		t.Fatalf("%d function types, want 13", len(w.Functions))
	}
	// All 13 types actually appear.
	seen := map[int]bool{}
	for _, inv := range w.Invocations {
		seen[inv.Fn.ID] = true
	}
	if len(seen) != 13 {
		t.Fatalf("only %d function types invoked", len(seen))
	}
}

func TestPickAndByIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown ID did not panic")
		}
	}()
	ByID(Functions(), 99)
}

func TestUnknownWorkloadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown workload did not panic")
		}
	}()
	Build("nope", 1, Options{})
}

func TestExecJitterApplied(t *testing.T) {
	w := Build(Uniform, 1, Options{ExecJitter: 0.2})
	varied := false
	for _, inv := range w.Invocations {
		if inv.Exec != inv.Fn.Exec {
			varied = true
		}
		r := float64(inv.Exec) / float64(inv.Fn.Exec)
		if r < 0.8-1e-9 || r > 1.2+1e-9 {
			t.Fatalf("jitter ratio %v outside ±20%%", r)
		}
	}
	if !varied {
		t.Fatal("no jitter applied")
	}
}
