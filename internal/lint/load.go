package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info

	// Src holds each parsed file's source bytes, keyed by filename.
	// The directive matcher uses it to distinguish a trailing
	// //mlcr:allow (suppresses its own line) from a whole-line one
	// (suppresses the next line).
	Src map[string][]byte
}

// listedPkg mirrors the `go list -json` fields the loader consumes.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
}

// listCache memoizes `go list` runs and the union of every listed
// package seen so far. Loading the module and then a dozen test
// fixtures shares one heavily overlapping dependency closure; caching
// turns all but the first subprocess round-trip into map lookups.
var listCache struct {
	sync.Mutex
	exact map[string][]listedPkg // (dir, patterns) -> full result
	deps  map[string]listedPkg   // ImportPath -> entry, across all runs
}

// goList runs `go list -deps -export -json` in dir over the patterns
// and returns the decoded package stream. -export makes the go tool
// compile each package and report the path of its export data in the
// build cache — the same resolution strategy `go vet` uses, and the
// reason this loader needs no dependency beyond the go toolchain
// already required to build the module. Results are memoized
// process-wide (the build cache makes re-listing idempotent).
func goList(dir string, patterns ...string) ([]listedPkg, error) {
	key := dir + "\x00" + strings.Join(patterns, "\x00")
	listCache.Lock()
	if listCache.exact == nil {
		listCache.exact = make(map[string][]listedPkg)
		listCache.deps = make(map[string]listedPkg)
	}
	if pkgs, ok := listCache.exact[key]; ok {
		listCache.Unlock()
		return pkgs, nil
	}
	listCache.Unlock()

	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Standard",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	listCache.Lock()
	listCache.exact[key] = pkgs
	for _, p := range pkgs {
		listCache.deps[p.ImportPath] = p
	}
	listCache.Unlock()
	return pkgs, nil
}

// cachedClosure returns the memoized dependency-closure entries when
// every requested import path has already been listed by an earlier
// goList run (any run: `go list -deps` returns transitive closures, so
// the union of past runs resolves any import the cached paths reach).
func cachedClosure(paths []string) ([]listedPkg, bool) {
	listCache.Lock()
	defer listCache.Unlock()
	for _, p := range paths {
		if _, ok := listCache.deps[p]; !ok {
			return nil, false
		}
	}
	out := make([]listedPkg, 0, len(listCache.deps))
	for _, lp := range listCache.deps {
		out = append(out, lp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, true
}

// exportImporter builds a types.Importer that resolves every import
// from the export data files `go list -export` reported. One importer
// is shared across all packages of a load so imports are type-checked
// once.
func exportImporter(fset *token.FileSet, listed []listedPkg) types.Importer {
	exports := make(map[string]string, len(listed))
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// newInfo allocates the types.Info maps the analyzers consume.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// parseInto reads and parses one Go file, recording its source bytes.
func parseInto(fset *token.FileSet, path string, src map[string][]byte) (*ast.File, error) {
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := parser.ParseFile(fset, path, text, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	src[path] = text
	return f, nil
}

// Load parses and type-checks the module packages matching the go
// list patterns (e.g. "./..."), rooted at dir. Only the matched
// packages are loaded from source; their dependencies come from
// compiler export data.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, listed)
	var out []*Package
	for _, lp := range listed {
		if lp.DepOnly || lp.Standard {
			continue
		}
		src := make(map[string][]byte, len(lp.GoFiles))
		files := make([]*ast.File, 0, len(lp.GoFiles))
		for _, name := range lp.GoFiles {
			f, err := parseInto(fset, filepath.Join(lp.Dir, name), src)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := newInfo()
		if _, err := (&types.Config{Importer: imp}).Check(lp.ImportPath, fset, files, info); err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
		}
		out = append(out, &Package{
			Path:  lp.ImportPath,
			Dir:   lp.Dir,
			Fset:  fset,
			Files: files,
			Info:  info,
			Src:   src,
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("go list %v matched no packages", patterns)
	}
	return out, nil
}

// LoadFixture type-checks a single directory of Go files (a test
// fixture under testdata/, invisible to the go tool) as though its
// import path were as — the path decides analyzer scoping, so tests
// place fixtures inside or outside the deterministic package set at
// will. Imports are resolved exactly like Load resolves them, with
// moduleDir as the go list working directory.
func LoadFixture(moduleDir, fixtureDir, as string) (*Package, error) {
	entries, err := os.ReadDir(fixtureDir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	src := make(map[string][]byte)
	imports := make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		f, err := parseInto(fset, filepath.Join(fixtureDir, e.Name()), src)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return nil, err
			}
			if path != "unsafe" {
				imports[path] = true
			}
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", fixtureDir)
	}
	var listed []listedPkg
	if len(imports) > 0 {
		paths := make([]string, 0, len(imports))
		for p := range imports {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		var ok bool
		if listed, ok = cachedClosure(paths); !ok {
			if listed, err = goList(moduleDir, paths...); err != nil {
				return nil, err
			}
		}
	}
	info := newInfo()
	imp := exportImporter(fset, listed)
	if _, err := (&types.Config{Importer: imp}).Check(as, fset, files, info); err != nil {
		return nil, fmt.Errorf("type-checking fixture %s: %v", fixtureDir, err)
	}
	return &Package{
		Path: as, Dir: fixtureDir, Fset: fset, Files: files,
		Info: info, Src: src,
	}, nil
}
