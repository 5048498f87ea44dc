package lint_test

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mlcr/internal/lint"
)

// moduleRoot returns the repository root, where go list resolves the
// module's packages from.
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// fixtureDir returns the path of a named fixture package.
func fixtureDir(name string) string {
	return filepath.Join("testdata", "src", name)
}

// wantRe extracts the backtick-quoted expectations from a
// "// want `regex` `regex`..." comment (one per expected finding on
// the line).
var wantRe = regexp.MustCompile("`([^`]+)`")

// wantsOf harvests the // want expectations of a fixture package,
// keyed "file:line".
func wantsOf(t *testing.T, pkg *lint.Package) map[string][]*regexp.Regexp {
	t.Helper()
	wants := make(map[string][]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "// want `") {
					continue
				}
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want regexp %q: %v", m[1], err)
					}
					pos := pkg.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					wants[key] = append(wants[key], re)
				}
			}
		}
	}
	return wants
}

// checkFixture loads the fixture as import path `as`, runs the
// analyzers, and matches non-directive findings against the fixture's
// // want comments: every finding needs a matching want on its line
// and every want needs a matching finding. It returns the findings
// about directives themselves — malformed or stale — for the caller to
// assert, and the suppressed count.
func checkFixture(t *testing.T, name, as string, analyzers []*lint.Analyzer) (directives []lint.Finding, suppressed int) {
	t.Helper()
	pkg, err := lint.LoadFixture(moduleRoot(t), fixtureDir(name), as)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	res := lint.Check([]*lint.Package{pkg}, analyzers)
	wants := wantsOf(t, pkg)
	for _, f := range res.Findings {
		if f.Analyzer == "directive" || f.Analyzer == "unused-allow" {
			directives = append(directives, f)
			continue
		}
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		matched := -1
		for i, re := range wants[key] {
			if re.MatchString(f.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		wants[key] = append(wants[key][:matched], wants[key][matched+1:]...)
	}
	for key, res := range wants {
		for _, re := range res {
			t.Errorf("%s: expected finding matching %q, got none", key, re)
		}
	}
	return directives, res.Suppressed
}

// noDirectives fails the test when the fixture produced directive
// findings it should not have.
func noDirectives(t *testing.T, directives []lint.Finding) {
	t.Helper()
	for _, d := range directives {
		t.Errorf("unexpected directive finding: %s", d)
	}
}

func TestWalltimeFixture(t *testing.T) {
	d, _ := checkFixture(t, "walltime", "mlcr/internal/sim", []*lint.Analyzer{lint.Walltime})
	noDirectives(t, d)
}

// TestProfClockFixture locks the profiler clock contract: the
// injected-clock perf pattern is walltime-clean in deterministic
// packages, a wall-clock-anchored profiler is caught, and a reasoned
// //mlcr:allow suppresses the one legitimate real-latency profiler.
func TestProfClockFixture(t *testing.T) {
	d, suppressed := checkFixture(t, "profclock", "mlcr/internal/obs", []*lint.Analyzer{lint.Walltime})
	noDirectives(t, d)
	if suppressed != 2 {
		t.Errorf("suppressed = %d, want 2", suppressed)
	}
}

func TestDetRandFixture(t *testing.T) {
	d, _ := checkFixture(t, "detrand", "mlcr/internal/workload", []*lint.Analyzer{lint.DetRand})
	noDirectives(t, d)
}

func TestMapRangeFixture(t *testing.T) {
	d, _ := checkFixture(t, "maprange", "mlcr/internal/pool", []*lint.Analyzer{lint.MapRange})
	noDirectives(t, d)
}

func TestMarkUpdatedFixture(t *testing.T) {
	d, _ := checkFixture(t, "markupdated", "mlcr/internal/drl", []*lint.Analyzer{lint.MarkUpdated})
	noDirectives(t, d)
}

func TestErrCheckFixture(t *testing.T) {
	d, _ := checkFixture(t, "errcheck", "mlcr/internal/hub", []*lint.Analyzer{lint.ErrCheck})
	noDirectives(t, d)
}

// TestEvictScopeFixture proves the eviction-policy zoo sits inside the
// deterministic scope: a policy reading the wall clock or the global
// RNG is flagged when its file lives in mlcr/internal/evict.
func TestEvictScopeFixture(t *testing.T) {
	d, _ := checkFixture(t, "evictpolicy", "mlcr/internal/evict", []*lint.Analyzer{lint.Walltime, lint.DetRand})
	noDirectives(t, d)
}

func TestNewImageFixture(t *testing.T) {
	d, _ := checkFixture(t, "newimage", "mlcr/internal/cluster", []*lint.Analyzer{lint.NewImage})
	noDirectives(t, d)
}

// TestNewImageScope: the analyzer covers all of internal/ except the
// image package itself (the construction path), and nothing outside
// internal/.
func TestNewImageScope(t *testing.T) {
	for _, as := range []string{"mlcr/internal/image", "mlcr/cmd/mlcr-sim", "mlcr/examples/demo"} {
		pkg, err := lint.LoadFixture(moduleRoot(t), fixtureDir("newimage"), as)
		if err != nil {
			t.Fatalf("loading fixture as %s: %v", as, err)
		}
		for _, f := range lint.Check([]*lint.Package{pkg}, []*lint.Analyzer{lint.NewImage}).Findings {
			t.Errorf("as %s: unexpected finding %s", as, f)
		}
	}
}

// TestOutOfScopeIgnored reruns the walltime fixture under import
// paths outside the deterministic set: nothing may be reported even
// though the files are riddled with time.Now.
func TestOutOfScopeIgnored(t *testing.T) {
	for _, as := range []string{"mlcr/internal/lint", "mlcr/cmd/mlcr-sim", "mlcr/examples/demo"} {
		pkg, err := lint.LoadFixture(moduleRoot(t), fixtureDir("walltime"), as)
		if err != nil {
			t.Fatalf("loading fixture as %s: %v", as, err)
		}
		for _, f := range lint.Check([]*lint.Package{pkg}, []*lint.Analyzer{lint.Walltime, lint.DetRand, lint.MapRange}).Findings {
			t.Errorf("as %s: unexpected finding %s", as, f)
		}
	}
}

// TestAllowSuppresses is the suppression fixture: one violation for
// each of the six analyzers, each carrying an //mlcr:allow directive (trailing and
// line-above placements both appear), so zero findings survive and
// exactly six were suppressed.
func TestAllowSuppresses(t *testing.T) {
	d, suppressed := checkFixture(t, "allowed", "mlcr/internal/nn", lint.All())
	noDirectives(t, d)
	if suppressed != 6 {
		t.Errorf("suppressed = %d, want 6", suppressed)
	}
}

// TestMalformedDirectives is the unsuppressed fixture: directives with
// a missing analyzer, missing reason, unknown analyzer, or the wrong
// analyzer must not suppress anything, and each is a finding in its
// own right (the wrong-analyzer one as a directive that suppresses
// nothing).
func TestMalformedDirectives(t *testing.T) {
	directives, suppressed := checkFixture(t, "badallow", "mlcr/internal/platform", lint.All())
	if suppressed != 0 {
		t.Errorf("suppressed = %d, want 0 (malformed directives must not suppress)", suppressed)
	}
	wantMsgs := []string{
		"needs an analyzer name",
		"needs a reason",
		"unknown analyzer",
		"suppresses nothing",
	}
	if len(directives) != len(wantMsgs) {
		t.Fatalf("got %d directive findings, want %d: %v", len(directives), len(wantMsgs), directives)
	}
	for i, want := range wantMsgs {
		if !strings.Contains(directives[i].Message, want) {
			t.Errorf("directive finding %d = %q, want containing %q", i, directives[i].Message, want)
		}
	}
}

func TestIsDeterministic(t *testing.T) {
	cases := map[string]bool{
		"mlcr/internal/sim":         true,
		"mlcr/internal/runner":      true,
		"mlcr/internal/pool":        true,
		"mlcr/internal/cluster":     true,
		"mlcr/internal/drl":         true,
		"mlcr/internal/evict":       true,
		"mlcr/internal/nn":          true,
		"mlcr/internal/mlcr":        true,
		"mlcr/internal/experiments": true,
		"mlcr/internal/hub":         true,
		"mlcr/internal/fstartbench": true,
		"mlcr/internal/workload":    true,
		"mlcr/internal/obs":         true,
		"mlcr/internal/obs/perf":    true,
		"mlcr/internal/api":         true,
		"mlcr/internal/lint":        false,
		"mlcr/cmd/mlcr-sim":         false,
		"mlcr":                      false,
		"fmt":                       false,
	}
	for path, want := range cases {
		if got := lint.IsDeterministic(path); got != want {
			t.Errorf("IsDeterministic(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestByName(t *testing.T) {
	as, err := lint.ByName("walltime, errcheck")
	if err != nil || len(as) != 2 || as[0].Name != "walltime" || as[1].Name != "errcheck" {
		t.Fatalf("ByName = %v, %v", as, err)
	}
	if _, err := lint.ByName("nosuch"); err == nil {
		t.Fatal("ByName accepted unknown analyzer")
	}
	if _, err := lint.ByName(""); err == nil {
		t.Fatal("ByName accepted empty list")
	}
}

// TestModuleClean is the self-gate: the whole module must run clean
// under every analyzer. Skipped under -short because scripts/check.sh
// runs the mlcr-vet binary over the module anyway; the full suite
// keeps the property locked from `go test` alone.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("module-wide vet runs in scripts/check.sh; -short skips the duplicate")
	}
	pkgs, err := lint.Load(moduleRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range lint.Check(pkgs, lint.All()).Findings {
		t.Errorf("%s", f)
	}
}
