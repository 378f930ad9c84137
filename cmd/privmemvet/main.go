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
//	privmemvet -stats ./...               # per-analyzer counts + wall-time (benchjson)
//
// Analyzer scoping: detrand runs only on deterministic packages (the
// simulators, attacks, defenses, experiments — not serve/cmd, where
// wall-clock is legitimate); seedflow on the experiment, defense, fleet,
// hmm, metrics, and invariant suites; errpath on serve and the cmd
// binaries; maporder, mutexscope, purecall, poolescape, atomicmix, and
// floatorder everywhere. Explicit .go file arguments run every analyzer,
// which is how scratch fixtures prove each one fires (see main_test.go).
//
// When the loaded universe contains privmem/internal/experiments (the
// ./... gate invocation does), the interprocedural deterministic certifier
// (internal/analysis/determ) additionally verifies every experiment
// builder transitively avoids impurity sinks; see DESIGN.md §13.
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
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"privmem/internal/analysis"
	"privmem/internal/analysis/atomicmix"
	"privmem/internal/analysis/determ"
	"privmem/internal/analysis/detrand"
	"privmem/internal/analysis/errpath"
	"privmem/internal/analysis/floatorder"
	"privmem/internal/analysis/maporder"
	"privmem/internal/analysis/mutexscope"
	"privmem/internal/analysis/poolescape"
	"privmem/internal/analysis/purecall"
	"privmem/internal/analysis/seedflow"
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
	stats := fs.Bool("stats", false, "print per-analyzer finding counts and wall-time in go-bench format")
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
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	start := time.Now()
	res, err := vet(".", patterns, checks)
	if err != nil {
		fmt.Fprintf(stderr, "privmemvet: %v\n", err)
		return 2
	}
	res.wall = time.Since(start)

	switch {
	case *stats:
		return emitStats(stdout, res)
	case *asJSON:
		return emitJSON(stdout, res)
	}
	n := 0
	for _, d := range res.diags {
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

// result is one vet run's full output: every diagnostic (suppressed ones
// included) plus per-analyzer cumulative run times.
type result struct {
	diags   []analysis.Diagnostic
	timings map[string]time.Duration
	wall    time.Duration
}

// vet loads the packages matching patterns and applies each analyzer in
// its scope, analyzing packages concurrently (bounded by GOMAXPROCS).
// Ad-hoc file packages (go list's command-line-arguments) get the full
// suite: they exist to demonstrate analyzers firing. When the loaded
// universe includes the experiments package, the interprocedural
// deterministic certifier runs over the whole universe afterward.
func vet(dir string, patterns []string, checks []scoped) (*result, error) {
	pkgs, err := analysis.Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	res := &result{timings: map[string]time.Duration{}}
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
		sem      = make(chan struct{}, runtime.GOMAXPROCS(0))
	)
	for _, pkg := range pkgs {
		var active []*analysis.Analyzer
		for _, c := range checks {
			if pkg.ImportPath == "command-line-arguments" || c.applies(pkg.ImportPath) {
				active = append(active, c.analyzer)
			}
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(pkg *analysis.Package, active []*analysis.Analyzer) {
			defer wg.Done()
			defer func() { <-sem }()
			diags, timings, err := analysis.RunAnalyzersDetailed(pkg, active)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			res.diags = append(res.diags, diags...)
			for name, d := range timings {
				res.timings[name] += d
			}
		}(pkg, active)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	certify := false
	for _, pkg := range pkgs {
		if pkg.ImportPath == "privmem/internal/experiments" {
			certify = true
			break
		}
	}
	if certify {
		start := time.Now()
		res.diags = append(res.diags, determ.Certify(pkgs)...)
		res.timings["deterministic"] = time.Since(start)
	}
	analysis.SortDiagnostics(res.diags)
	return res, nil
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
func emitJSON(stdout io.Writer, res *result) int {
	out := toJSONDiags(res.diags)
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

// emitStats prints one go-bench-format line per analyzer plus a total, so
// `privmemvet -stats ./... | benchjson` yields the BENCH_lint.json
// trajectory: per-analyzer findings/suppressions as custom metrics and
// analysis time as ns/op.
func emitStats(stdout io.Writer, res *result) int {
	counts := map[string]int{}
	suppressed := map[string]int{}
	for _, d := range res.diags {
		if d.Suppressed {
			suppressed[d.Analyzer]++
		} else {
			counts[d.Analyzer]++
		}
	}
	names := make([]string, 0, len(res.timings))
	for name := range res.timings {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "BenchmarkLint/%s 1 %d ns/op %d findings %d suppressed\n",
			name, res.timings[name].Nanoseconds(), counts[name], suppressed[name])
	}
	var total, totalSup int
	for _, n := range counts {
		total += n
	}
	for _, n := range suppressed {
		totalSup += n
	}
	fmt.Fprintf(stdout, "BenchmarkLint/total 1 %d ns/op %d findings %d suppressed\n",
		res.wall.Nanoseconds(), total, totalSup)
	return 0
}
