package lint_test

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mlcr/internal/lint"
)

// TestDirectiveAnchoring pins the anchoring contract: a trailing
// //mlcr:allow suppresses its own line only (the next line's
// violation survives), a whole-line directive suppresses exactly the
// next line.
func TestDirectiveAnchoring(t *testing.T) {
	d, suppressed := checkFixture(t, "anchoring", "mlcr/internal/sim", []*lint.Analyzer{lint.Walltime})
	noDirectives(t, d)
	if suppressed != 2 {
		t.Errorf("suppressed = %d, want 2", suppressed)
	}
}

// TestUnusedAllow: a directive that suppresses nothing is a finding —
// but only when its analyzer actually ran.
func TestUnusedAllow(t *testing.T) {
	load := func() *lint.Package {
		pkg, err := lint.LoadFixture(moduleRoot(t), fixtureDir("unusedallow"), "mlcr/internal/sim")
		if err != nil {
			t.Fatal(err)
		}
		return pkg
	}

	res := lint.Check([]*lint.Package{load()}, []*lint.Analyzer{lint.Walltime})
	if len(res.Findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(res.Findings), res.Findings)
	}
	f := res.Findings[0]
	if f.Analyzer != "unused-allow" || !strings.Contains(f.Message, "suppresses nothing") {
		t.Errorf("unexpected finding: %s", f)
	}

	// The analyzer the directive names did not run: no verdict.
	res = lint.Check([]*lint.Package{load()}, []*lint.Analyzer{lint.DetRand})
	if len(res.Findings) != 0 {
		t.Errorf("partial -run judged a foreign directive: %v", res.Findings)
	}

	// mlcr-vet's default run (every analyzer) reports the stale directive.
	res = lint.Check([]*lint.Package{load()}, lint.All())
	if len(res.Findings) != 1 || res.Findings[0].Analyzer != "unused-allow" {
		t.Errorf("default run: got %v, want the one unused-allow finding", res.Findings)
	}
}

// TestCheckAllDeterministic: the parallel runner's output contract —
// identical findings, in order, and the same suppressed count at any
// GOMAXPROCS. The module is clean, so fixtures with findings ride along
// to give the order something to get wrong.
func TestCheckAllDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("module-wide load; covered by the full suite")
	}
	pkgs, err := lint.Load(moduleRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"walltime", "maprange", "errcheck", "badallow"} {
		pkg, err := lint.LoadFixture(moduleRoot(t), fixtureDir(name), "mlcr/internal/"+name)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	seq := lint.Check(pkgs, lint.All())
	runtime.GOMAXPROCS(8)
	par := lint.Check(pkgs, lint.All())
	if len(seq.Findings) == 0 || !reflect.DeepEqual(seq.Findings, par.Findings) {
		t.Errorf("findings differ across GOMAXPROCS:\nseq: %v\npar: %v", seq.Findings, par.Findings)
	}
	if seq.Suppressed != par.Suppressed {
		t.Errorf("suppressed count differs: %d vs %d", seq.Suppressed, par.Suppressed)
	}
}

// BenchmarkVetModule times one full Check sweep of the module —
// the cost scripts/check.sh pays on every run. Loading (go list +
// parse + type-check) is excluded; the directive cache warms on the
// first iteration like any steady-state run.
func BenchmarkVetModule(b *testing.B) {
	root := "../.."
	pkgs, err := lint.Load(root, "./...")
	if err != nil {
		b.Fatal(err)
	}
	analyzers := lint.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := lint.Check(pkgs, analyzers); len(res.Findings) != 0 {
			b.Fatalf("module not vet-clean: %v", res.Findings)
		}
	}
}
