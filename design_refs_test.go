package mlcr_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignSectionRefsResolve: every "DESIGN.md §N" (or "DESIGN.md §N,
// §M") that Go source in the repository cites names a "## N." heading of
// DESIGN.md, so renumbering or deleting a section cannot leave a comment
// pointing nowhere.
func TestDesignSectionRefsResolve(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	headings := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## (\d+)\. `).FindAllSubmatch(doc, -1) {
		headings[string(m[1])] = true
	}
	cite := regexp.MustCompile(`DESIGN\.md §\d+(?:, §\d+)*`)
	section := regexp.MustCompile(`§(\d+)`)
	refs := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != "." || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, c := range cite.FindAll(src, -1) {
			for _, s := range section.FindAllSubmatch(c, -1) {
				refs++
				if !headings[string(s[1])] {
					t.Errorf("%s cites %q: DESIGN.md has no heading \"## %s.\"", path, c, s[1])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if refs == 0 {
		t.Fatal("found no DESIGN.md § citation in any Go file: the pattern is broken")
	}
}
