// Package analysis is a stdlib-only reimplementation of the core of
// golang.org/x/tools/go/analysis, sized for this repository's needs. The
// module is deliberately dependency-free (see README "Install"), so the
// x/tools framework cannot be imported; this package supplies the same
// shape — Analyzer values with a Run(*Pass) hook reporting position-tagged
// diagnostics — plus the repo-specific pieces: a go-list-backed module
// loader (load.go), the //lint:allow suppression contract (suppress.go),
// an analysistest-style fixture harness (antest), and the summary-based
// interprocedural engine (callgraph.go, summary.go, certify.go) behind the
// deterministic certifier.
//
// The intraprocedural analyzers live in subpackages (detrand, seedflow,
// maporder, mutexscope, errpath, purecall, poolescape, atomicmix,
// floatorder) and are wired into the cmd/privmemvet multichecker together
// with the module-level certifier (internal/analysis/determ); DESIGN.md §8
// and §13 document each analyzer's contract and the suppression policy.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one static check. Run inspects a single type-checked package
// via its Pass and reports findings with Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:allow comments.
	Name string
	// Doc is a one-paragraph description of the contract being enforced.
	Doc string
	// Run executes the check. A returned error aborts the whole run (it
	// means the analyzer itself is broken, not that the code has findings).
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Suppressed marks a finding silenced by a well-formed //lint:allow
	// directive; Reason carries the directive's written justification.
	// Suppressed findings are kept so structured output can expose the
	// full allow inventory.
	Suppressed bool
	Reason     string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunAnalyzers applies each analyzer to pkg and returns every diagnostic,
// sorted by position so output is stable across runs. Findings a
// well-formed //lint:allow comment silences come back marked Suppressed
// with the allow's reason attached; malformed allows (missing analyzer
// name or reason) are themselves reported.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.ImportPath, err)
		}
	}
	sup := collectSuppressions(pkg.Fset, pkg.Files)
	diags = sup.annotate(diags)
	SortDiagnostics(diags)
	return diags, nil
}

// SortDiagnostics orders diagnostics by file, line, column, then analyzer
// name, so output is stable across runs and across concurrent analysis.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
