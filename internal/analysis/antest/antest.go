// Package antest is this repository's stand-in for
// golang.org/x/tools/go/analysis/analysistest: it runs one analyzer over a
// fixture directory and checks the reported diagnostics against
// `// want "regexp"` comments in the fixture source.
//
// Fixture layout follows the analysistest convention: each analyzer keeps
// its cases under testdata/src/<name>/, one package per directory. A line
// that must be flagged carries a trailing comment
//
//	rand.Intn(6) // want `global math/rand`
//
// where the quoted text (backquotes or double quotes) is a regular
// expression matched against the diagnostic message. Lines without a want
// comment must produce no diagnostic. Suppressions (//lint:allow) are
// applied exactly as in the real driver, so fixtures can prove both that a
// well-formed allow silences a finding and that a malformed one is
// re-reported (expected via a `// want` on the lintallow pseudo-analyzer's
// message).
//
// Fixtures are type-checked against the standard library only; analyzers
// whose configuration names module types (purecall) accept that
// configuration as a parameter so fixtures can bind to fixture-local types.
package antest

import (
	"fmt"
	"go/importer"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"privmem/internal/analysis"
)

// wantRe extracts the quoted regexp from a `// want "..."` or
// `// want `...“ comment.
var wantRe = regexp.MustCompile("//\\s*want\\s+(?:\"([^\"]*)\"|`([^`]*)`)")

// Run analyzes the single fixture package in dir with a and reports any
// mismatch between produced diagnostics and // want expectations on t.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	pkg, err := loadFixture(dir)
	if err != nil {
		t.Fatalf("antest: loading fixture %s: %v", dir, err)
	}
	diags, err := analysis.RunAnalyzers(pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("antest: running %s on %s: %v", a.Name, dir, err)
	}

	Expect(t, []*analysis.Package{pkg}, diags)
}

// Expect checks diags, as a whole-program check returned them over pkgs,
// against the // want expectations in pkgs' files. Suppressed diagnostics
// count as absent, exactly as the driver prints them.
func Expect(t *testing.T, pkgs []*analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	wants := collectWants(t, pkgs)

	// Match each diagnostic against the want expectation on its line.
	matched := map[*want]bool{}
	for _, d := range diags {
		if d.Suppressed {
			continue
		}
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		w := wants[key]
		switch {
		case w == nil:
			t.Errorf("unexpected diagnostic at %s", d)
		case !w.re.MatchString(d.Message):
			t.Errorf("diagnostic at %s:%d %q does not match want %q", d.Pos.Filename, d.Pos.Line, d.Message, w.re)
		default:
			matched[w] = true
		}
	}
	var missing []string
	for _, w := range wants {
		if !matched[w] {
			missing = append(missing, fmt.Sprintf("%s: no diagnostic matching %q", w.at, w.re))
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("missing expected diagnostic: %s", m)
	}
}

type want struct {
	at string
	re *regexp.Regexp
}

// collectWants scans fixture comments for // want expectations, keyed by
// file:line.
func collectWants(t *testing.T, pkgs []*analysis.Package) map[string]*want {
	t.Helper()
	wants := map[string]*want{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					expr := m[1]
					if expr == "" {
						expr = m[2]
					}
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Fatalf("antest: bad want regexp %q: %v", expr, err)
					}
					pos := pkg.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					wants[key] = &want{at: key, re: re}
				}
			}
		}
	}
	return wants
}

// loadFixture parses and type-checks every .go file in dir as one package
// whose import path is the directory's base name.
func loadFixture(dir string) (*analysis.Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	fset := token.NewFileSet()
	return analysis.CheckFiles(fset, importer.ForCompiler(fset, "gc", nil), dir, filepath.Base(dir), names)
}
