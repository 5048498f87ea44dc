// Command mlcr-vet runs the repository's project-specific static
// analyzers — the determinism and construction contract checks in
// internal/lint — over the module and exits non-zero on any finding.
//
// Usage:
//
//	mlcr-vet [-run analyzers] [-list] [packages]
//
// Packages default to ./... resolved from the current directory.
// Findings print one per line as "file:line: analyzer: message"; the
// run ends with a CI-friendly summary line and exit status 1 when
// anything was found. Suppress individual findings with
// "//mlcr:allow <analyzer> <reason>" on the offending line or the
// line above (see DESIGN.md §9). A directive that no longer suppresses
// anything is a finding too, judged only when its analyzer ran.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"mlcr/internal/lint"
)

func main() {
	runList := flag.String("run", "", "comma-separated analyzers to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.All()
	if *runList != "" {
		var err error
		if analyzers, err = lint.ByName(*runList); err != nil {
			fatal(err)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	pkgs, err := lint.Load(cwd, patterns...)
	if err != nil {
		fatal(err)
	}

	res := lint.Check(pkgs, analyzers)
	for _, f := range res.Findings {
		// Paths relative to the working directory, as the compiler and
		// go vet print them.
		if rel, err := filepath.Rel(cwd, f.Pos.Filename); err == nil && !filepath.IsAbs(rel) {
			f.Pos.Filename = rel
		}
		fmt.Println(f)
	}
	summary := fmt.Sprintf("mlcr-vet: %d finding(s), %d suppressed, %d package(s), %d analyzer(s)",
		len(res.Findings), res.Suppressed, res.Packages, res.Analyzers)
	if len(res.Findings) > 0 {
		fmt.Fprintln(os.Stderr, summary)
		os.Exit(1)
	}
	fmt.Println("ok\t" + summary)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mlcr-vet:", err)
	os.Exit(2)
}
