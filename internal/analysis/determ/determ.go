// Package determ is the module-level determinism certifier. Unlike the
// per-package analyzers it cannot run inside a single Pass: it builds the
// whole-module call graph, computes per-function effect summaries,
// propagates them bottom-up (internal/analysis callgraph.go / summary.go),
// and then certifies that every experiment builder — each function with
// the Runner shape `func(Options) (*Report, error)` declared in
// privmem/internal/experiments — transitively avoids wall-clock reads,
// the global math/rand, map-iteration-ordered output, environment and
// filesystem reads, and unsynchronized writes to package-level state.
//
// That set of roots is exactly what the table behind AllIDs() can
// dispatch to, so a clean certification is a static proof obligation
// matching the repo's (seed,id)-purity contract (DESIGN.md §2, §13): the
// golden bit-identity tests check that the current build is reproducible;
// the certifier explains *why*, and catches an impure leak at review time
// instead of as a golden-file diff three PRs later.
//
// Escapes: //lint:allow at a sink line silences that sink (the certifier
// reports at the sink, so one reasoned allow satisfies both the
// intraprocedural analyzer and every certified root reaching it), and
// //lint:trust in a function's doc comment vouches for an intentionally
// impure subtree — e.g. memo caches that write package-level state under a
// lock but stay observationally (seed,id)-pure.
package determ

import (
	"go/types"
	"strings"

	"privmem/internal/analysis"
)

// rootPkg is the package whose Runner-shaped functions are certified.
const rootPkg = "privmem/internal/experiments"

// Certify runs the interprocedural certifier over the loaded module
// universe. Returned diagnostics mix analyzer "deterministic" (an impurity
// reachable from a builder, with a witness call chain) and "linttrust"
// (malformed //lint:trust directives).
func Certify(pkgs []*analysis.Package) []analysis.Diagnostic {
	g := analysis.BuildCallGraph(pkgs)
	s := analysis.Summarize(g)
	diags := analysis.Certify(s, RootKeys(g))
	diags = append(diags, s.Malformed...)
	analysis.SortDiagnostics(diags)
	return diags
}

// RootKeys returns the certification roots found in g: every function with
// the experiment Runner signature `func(Options) (*Report, error)` declared
// in a non-test file of privmem/internal/experiments. Exported so the
// driver's crosscheck test can compare the static root set against the live
// registry.
func RootKeys(g *analysis.CallGraph) []analysis.FuncKey {
	var roots []analysis.FuncKey
	for _, node := range g.SortedNodes() {
		fn := node.Fn
		if fn.Pkg() == nil || fn.Pkg().Path() != rootPkg {
			continue
		}
		file := node.Pkg.Fset.Position(node.Decl.Pos()).Filename
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		if isRunnerSig(fn) {
			roots = append(roots, node.Key)
		}
	}
	return roots
}

// isRunnerSig matches func(Options) (*Report, error) with both named types
// from the experiments package.
func isRunnerSig(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil || sig.Variadic() {
		return false
	}
	if sig.Params().Len() != 1 || sig.Results().Len() != 2 {
		return false
	}
	if !isExpNamed(sig.Params().At(0).Type(), "Options") {
		return false
	}
	ptr, ok := types.Unalias(sig.Results().At(0).Type()).(*types.Pointer)
	if !ok || !isExpNamed(ptr.Elem(), "Report") {
		return false
	}
	return types.Identical(sig.Results().At(1).Type(), types.Universe.Lookup("error").Type())
}

func isExpNamed(t types.Type, name string) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == rootPkg
}
