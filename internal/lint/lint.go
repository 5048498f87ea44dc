// Package lint is the repository's project-specific static-analysis
// framework: an analyzer runner built on the standard library's
// go/parser and go/types (the module stays dependency-free) and the four
// per-file mlcr-vet analyzers that mechanically enforce the simulator's
// determinism contract and its dropped-error rule (DESIGN.md §9). The
// hot-path, shard and registry contracts are owned by runtime tests, and
// the weight-invalidation contract by nn's unexported weights (DESIGN.md
// §14).
//
// An Analyzer inspects one type-checked package at a time through a
// Pass and reports Findings. Findings can be suppressed — explicitly and
// auditably — with a directive comment:
//
//	//mlcr:allow <analyzer> <reason>
//
// A whole-line directive suppresses findings on the next line; a
// directive trailing code suppresses findings on its own line only
// (so an allow on one declaration can never silently absorb a finding
// on the following one). A directive with a missing or unknown
// analyzer name, or no reason, is itself reported as a finding, and so
// is a directive that no longer suppresses anything, so suppressions
// cannot rot silently.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Analyzer is one project-specific check. Run inspects the package in
// the Pass and reports findings through it; the framework applies
// suppression directives and ordering afterwards.
type Analyzer struct {
	Name string // short lower-case identifier, used in output and directives
	Doc  string // one-line contract description
	Run  func(*Pass)
}

// Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Path     string // package import path (decides deterministic scope)
	Fset     *token.FileSet
	Files    []*ast.File
	Info     *types.Info

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Finding is one reported contract violation.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the canonical
// "file:line: analyzer: message" form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// All returns the full mlcr-vet analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{
		Walltime, DetRand, MapRange, ErrCheck,
	}
}

// ByName resolves a comma-separated analyzer list against All,
// erroring on unknown names.
func ByName(names string) ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return out, nil
}

// allowPrefix introduces a suppression directive comment.
const allowPrefix = "//mlcr:allow"

// directive is one parsed //mlcr:allow comment. A directive anchors
// to exactly one line: its own when it trails code, the next when it
// occupies a whole line (a whole-line comment cannot carry a finding
// itself, so "own line" would anchor to nothing).
type directive struct {
	file       string
	line       int
	analyzer   string
	standalone bool // whole-line comment (only whitespace precedes it)
	used       bool // suppressed a finding in this Check run
}

// suppressesLine reports whether the directive anchors to line.
func (d *directive) suppressesLine(line int) bool {
	if d.standalone {
		return line == d.line+1
	}
	return line == d.line
}

// parseDirectives parses every //mlcr:allow directive in the package.
// Malformed directives (missing analyzer, unknown analyzer, missing
// reason) come back as findings under the "directive" analyzer name so
// they fail the build instead of silently allowing — or silently not
// allowing — anything.
func parseDirectives(pkg *Package) (dirs []*directive, bad []Finding) {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // some other //mlcr:allowX token, not ours
				}
				pos := pkg.Fset.Position(c.Pos())
				badf := func(msg string) {
					bad = append(bad, Finding{Pos: pos, Analyzer: "directive", Message: msg})
				}
				fields := strings.Fields(rest)
				switch {
				case len(fields) == 0:
					badf("directive needs an analyzer name and a reason: //mlcr:allow <analyzer> <reason>")
				case !known[fields[0]]:
					badf(fmt.Sprintf("directive names unknown analyzer %q", fields[0]))
				case len(fields) == 1:
					badf(fmt.Sprintf("//mlcr:allow %s needs a reason — suppressions must be auditable", fields[0]))
				default:
					dirs = append(dirs, &directive{
						file:       pos.Filename,
						line:       pos.Line,
						analyzer:   fields[0],
						standalone: startsLine(pkg.Src[pos.Filename], pos),
					})
				}
			}
		}
	}
	return dirs, bad
}

// startsLine reports whether only whitespace precedes the position on
// its source line. Missing source (defensive; Load and LoadFixture
// always record it) falls back to trailing semantics, the stricter
// anchoring.
func startsLine(src []byte, pos token.Position) bool {
	if src == nil || pos.Offset > len(src) {
		return false
	}
	for i := pos.Offset - 1; i >= 0; i-- {
		switch src[i] {
		case ' ', '\t':
			continue
		case '\n':
			return true
		default:
			return false
		}
	}
	return true // first line of the file
}

// Result is the outcome of a Check run.
type Result struct {
	// Findings are the surviving findings, position-sorted.
	Findings []Finding
	// Suppressed counts findings absorbed by //mlcr:allow directives.
	Suppressed int
	// Packages and Analyzers echo the run's scope for summaries.
	Packages, Analyzers int
}

// Check runs the analyzers over every package, GOMAXPROCS packages at a
// time, applies the //mlcr:allow directives and returns the surviving
// findings sorted by (file, line, column, analyzer, message), so the
// output is the same at any GOMAXPROCS.
func Check(pkgs []*Package, analyzers []*Analyzer) Result {
	perPkg := make([][]Finding, len(pkgs))
	suppressed := make([]int, len(pkgs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := min(runtime.GOMAXPROCS(0), len(pkgs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				perPkg[i], suppressed[i] = checkPackage(pkgs[i], analyzers)
			}
		}()
	}
	for i := range pkgs {
		next <- i
	}
	close(next)
	wg.Wait()

	res := Result{Packages: len(pkgs), Analyzers: len(analyzers)}
	for i, fs := range perPkg {
		res.Findings = append(res.Findings, fs...)
		res.Suppressed += suppressed[i]
	}
	sortFindings(res.Findings)
	return res
}

// checkPackage runs every analyzer over one package, applies the
// package's directives and returns the surviving findings plus the
// suppressed count. A directive that suppressed nothing is a finding
// too, but only when its analyzer ran: a partial -run cannot tell
// whether the other analyzers' directives still earn their keep.
func checkPackage(pkg *Package, analyzers []*Analyzer) ([]Finding, int) {
	var raw []Finding
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
		a.Run(&Pass{
			Analyzer: a,
			Path:     pkg.Path,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Info:     pkg.Info,
			findings: &raw,
		})
	}
	dirs, out := parseDirectives(pkg)
	suppressed := 0
	for _, f := range raw {
		if d := allowedBy(dirs, f); d != nil {
			d.used = true
			suppressed++
		} else {
			out = append(out, f)
		}
	}
	for _, d := range dirs {
		if ran[d.analyzer] && !d.used {
			out = append(out, Finding{
				Pos:      token.Position{Filename: d.file, Line: d.line},
				Analyzer: "unused-allow",
				Message:  fmt.Sprintf("//mlcr:allow %s suppresses nothing — the finding it excused is gone; delete the directive", d.analyzer),
			})
		}
	}
	return out, suppressed
}

// sortFindings orders findings by (file, line, column, analyzer,
// message).
func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// allowedBy returns the directive that suppresses the finding, or nil.
func allowedBy(dirs []*directive, f Finding) *directive {
	for _, d := range dirs {
		if d.analyzer == f.Analyzer && d.file == f.Pos.Filename && d.suppressesLine(f.Pos.Line) {
			return d
		}
	}
	return nil
}

// pkgPathOf returns the import path of the package a selector selects
// through (e.g. "time" for time.Now), or "" when sel.X is not a
// package name.
func pkgPathOf(info *types.Info, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// calleeObj resolves the object a call expression invokes (function,
// method or builtin), unwrapping parentheses; nil for indirect calls
// through function values and type conversions.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}
