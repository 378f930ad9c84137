// Command privmemvet is the repository's multichecker: it runs the custom
// go/analysis-style analyzer suite (internal/analysis) that mechanically
// enforces the determinism, seeding, and concurrency contracts the
// evaluation's bit-identical-reproducibility story rests on. It is the
// `make lint` gate; `make check` runs it between vet and the build.
//
// Usage:
//
//	privmemvet ./...                      # the PR gate invocation
//	privmemvet ./internal/...             # any package patterns
//	privmemvet file.go                    # ad-hoc file: every analyzer, no scoping
//	privmemvet -list                      # print the analyzer inventory and scopes
//	privmemvet -json ./...                # structured findings (incl. suppressed)
//
// Analyzer scoping: detrand runs only on deterministic packages (the
// simulators, attacks, defenses, experiments — not serve/cmd, where
// wall-clock is legitimate); seedflow on the experiments, defense/stp,
// fleet, hmm, metrics, and invariant packages; errpath on serve and the cmd
// binaries; maporder, mutexscope, purecall, poolescape, atomicmix, and
// floatorder everywhere. Explicit .go file arguments run every analyzer,
// which is how scratch fixtures prove each one fires (see main_test.go).
//
// When the loaded universe contains privmem/internal/experiments (the
// ./... gate invocation does), the interprocedural deterministic certifier
// (internal/analysis/determ) additionally verifies every experiment
// builder transitively avoids impurity sinks; see DESIGN.md §13. When
// ./... is linted at the module root, the whole-program deadexport check
// also loads perfbench and flags each exported internal/ declaration only
// tests reference. Module packages are type-checked from source, against
// `go list -export` data for the standard library and other modules.
//
// A finding is suppressed only by a written-reason comment on or above the
// offending line:
//
//	//lint:allow <analyzer> <reason>
//
// or, for an intentionally-impure subtree, a //lint:trust directive in the
// trusted function's doc comment. An allow or trust without a reason is
// itself a finding. Exit status is 1 if any diagnostic survives, 0 on a
// clean tree.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"privmem/internal/analysis"
	"privmem/internal/analysis/atomicmix"
	"privmem/internal/analysis/deadexport"
	"privmem/internal/analysis/determ"
	"privmem/internal/analysis/detrand"
	"privmem/internal/analysis/errpath"
	"privmem/internal/analysis/floatorder"
	"privmem/internal/analysis/maporder"
	"privmem/internal/analysis/mutexscope"
	"privmem/internal/analysis/poolescape"
	"privmem/internal/analysis/purecall"
	"privmem/internal/analysis/seedflow"
	"privmem/internal/par"
)

// scoped pairs an analyzer with the import-path predicate selecting the
// packages it applies to.
type scoped struct {
	analyzer *analysis.Analyzer
	scope    string // human-readable, for -list
	applies  func(importPath string) bool
}

func everywhere(string) bool { return true }

// deterministicScope selects the packages whose output must be a pure
// function of the seed: the facade and every internal package except the
// serving layer (latency metrics need wall-clock) and the analysis suite
// itself (tooling, not simulation).
func deterministicScope(path string) bool {
	if path == "privmem" {
		return true
	}
	if !strings.HasPrefix(path, "privmem/internal/") {
		return false
	}
	return path != "privmem/internal/serve" &&
		!strings.HasPrefix(path, "privmem/internal/analysis")
}

func seedflowScope(path string) bool {
	return path == "privmem/internal/experiments" ||
		path == "privmem/internal/defense/stp" ||
		path == "privmem/internal/fleet" ||
		path == "privmem/internal/hmm" ||
		path == "privmem/internal/metrics" ||
		strings.HasPrefix(path, "privmem/internal/invariant")
}

func errpathScope(path string) bool {
	return path == "privmem/internal/serve" || strings.HasPrefix(path, "privmem/cmd/")
}

func suite() []scoped {
	return []scoped{
		{detrand.Analyzer, "deterministic packages (internal/* minus serve, analysis)", deterministicScope},
		{seedflow.Analyzer, "internal/{experiments,defense/stp,fleet,hmm,metrics,invariant}", seedflowScope},
		{maporder.Analyzer, "all packages", everywhere},
		{mutexscope.Analyzer, "all packages", everywhere},
		{errpath.Analyzer, "internal/serve, cmd/* (non-test files)", errpathScope},
		{purecall.Analyzer, "all packages", everywhere},
		{poolescape.Analyzer, "all packages", everywhere},
		{atomicmix.Analyzer, "all packages", everywhere},
		{floatorder.Analyzer, "all packages", everywhere},
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("privmemvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print the analyzer inventory and scopes")
	asJSON := fs.Bool("json", false, "emit findings as JSON (including suppressed ones, with their allow reasons)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	checks := suite()
	if *list {
		for _, c := range checks {
			fmt.Fprintf(stdout, "%-13s %s\n              scope: %s\n", c.analyzer.Name, c.analyzer.Doc, c.scope)
		}
		fmt.Fprintf(stdout, "%-13s %s\n              scope: %s\n", "deterministic",
			"interprocedural certifier: experiment builders transitively avoid impurity sinks",
			"module-wide, when the universe includes internal/experiments")
		fmt.Fprintf(stdout, "%-13s %s\n              scope: %s\n", deadexport.Name, deadexport.Doc,
			"internal/* minus invariant, analysis/antest; when ./... is linted at the root, with perfbench")
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := vet(".", patterns, checks)
	if err != nil {
		fmt.Fprintf(stderr, "privmemvet: %v\n", err)
		return 2
	}
	if *asJSON {
		return emitJSON(stdout, diags)
	}
	n := 0
	for _, d := range diags {
		if !d.Suppressed {
			fmt.Fprintln(stdout, d)
			n++
		}
	}
	if n > 0 {
		fmt.Fprintf(stderr, "privmemvet: %d finding(s)\n", n)
		return 1
	}
	return 0
}

// vet loads the packages matching patterns and returns every diagnostic
// (suppressed ones included) of each analyzer applied in its scope,
// analyzing packages concurrently (bounded by GOMAXPROCS). Ad-hoc file
// packages (go list's command-line-arguments) get the full suite: they
// exist to demonstrate analyzers firing. When the loaded universe
// includes the experiments package, the interprocedural deterministic
// certifier runs over the whole universe afterward; when ./... is linted
// at the module root, so does deadexport, with perfbench loaded beside
// it.
func vet(dir string, patterns []string, checks []scoped) ([]analysis.Diagnostic, error) {
	pkgs, err := analysis.Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	perPkg := make([][]analysis.Diagnostic, len(pkgs))
	err = par.For(len(pkgs), func(i int) error {
		var active []*analysis.Analyzer
		for _, c := range checks {
			if pkgs[i].ImportPath == "command-line-arguments" || c.applies(pkgs[i].ImportPath) {
				active = append(active, c.analyzer)
			}
		}
		var err error
		perPkg[i], err = analysis.RunAnalyzers(pkgs[i], active)
		return err
	})
	if err != nil {
		return nil, err
	}
	var diags []analysis.Diagnostic
	for _, d := range perPkg {
		diags = append(diags, d...)
	}
	if findPackage(pkgs, "privmem/internal/experiments") != nil {
		diags = append(diags, determ.Certify(pkgs)...)
	}
	if facade := findPackage(pkgs, "privmem"); facade != nil && len(patterns) == 1 && patterns[0] == "./..." {
		second, err := analysis.Load(filepath.Join(facade.Dir, "perfbench"), patterns)
		if err != nil {
			return nil, err
		}
		diags = append(diags, deadexport.Check("privmem", pkgs, second)...)
	}
	analysis.SortDiagnostics(diags)
	return diags, nil
}

func findPackage(pkgs []*analysis.Package, path string) *analysis.Package {
	for _, pkg := range pkgs {
		if pkg.ImportPath == path {
			return pkg
		}
	}
	return nil
}

// jsonDiag is the structured-output shape. Paths are relative to the
// working directory so the output is machine-independent.
type jsonDiag struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
	Reason     string `json:"reason,omitempty"`
}

func toJSONDiags(diags []analysis.Diagnostic) []jsonDiag {
	cwd, err := os.Getwd()
	if err != nil {
		cwd = "" // fall through to absolute paths rather than failing the report
	}
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = filepath.ToSlash(rel)
			}
		}
		out = append(out, jsonDiag{
			File:       file,
			Line:       d.Pos.Line,
			Analyzer:   d.Analyzer,
			Message:    d.Message,
			Suppressed: d.Suppressed,
			Reason:     d.Reason,
		})
	}
	return out
}

// emitJSON prints every diagnostic — suppressed ones included, so the
// output doubles as the tree's allow/trust inventory. Exit mirrors the
// plain mode: 1 if any unsuppressed finding exists.
func emitJSON(stdout io.Writer, diags []analysis.Diagnostic) int {
	out := toJSONDiags(diags)
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	enc.Encode(out) //lint:allow errpath stdout encode of already-validated structs cannot fail meaningfully
	for _, d := range out {
		if !d.Suppressed {
			return 1
		}
	}
	return 0
}
