// Package seedflow enforces the experiment-suite seeding discipline: every
// random source constructed in a scoped package must be seeded either with
// a plain seed value (a variable, field, constant, or the effective-seed
// accessor) or with the output of an approved FNV-1a derivation helper —
// never with ad-hoc arithmetic such as seed+6 or seed^0x9e37.
//
// Ad-hoc offsets are how decorrelation bugs enter: seed+k collides with a
// neighbouring experiment's seed+k' the moment two generators pick the same
// constant, silently correlating streams that the evaluation assumes are
// independent (this is exactly why Options.ForExperiment hashes rather
// than offsets). The FNV-1a helpers keep every derived stream a pure,
// collision-resistant function of (seed, label).
package seedflow

import (
	"go/ast"
	"go/types"

	"privmem/internal/analysis"
)

// Analyzer is the seedflow check with the default deriver allowlist.
var Analyzer = New(DefaultDerivers)

// DefaultDerivers are the FNV-1a seed-derivation helpers recognised across
// the repository: seeds.SubSeed, invariant's rng helper, the Options
// plumbing that already hashes (ForExperiment) or normalises (Options.seed)
// the base seed, and hash.Hash64.Sum64 itself — a seed read straight off an
// FNV state is the derivation, not an ad-hoc offset.
var DefaultDerivers = []string{"subSeed", "SubSeed", "Rand", "ForExperiment", "seed", "Sum64"}

// New returns a seedflow analyzer that accepts calls to the named deriver
// functions (matched by bare name, package- or method-level) as seed
// sources.
func New(derivers []string) *analysis.Analyzer {
	allowed := map[string]bool{}
	for _, d := range derivers {
		allowed[d] = true
	}
	a := &analysis.Analyzer{
		Name: "seedflow",
		Doc:  "require rand sources to be seeded via the FNV-1a derivation helpers, not ad-hoc arithmetic",
	}
	a.Run = func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := analysis.Callee(pass.TypesInfo, call)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				path := fn.Pkg().Path()
				if path != "math/rand" && path != "math/rand/v2" {
					return true
				}
				var seedArgs []ast.Expr
				switch fn.Name() {
				case "NewSource": // rand.NewSource(seed)
					seedArgs = call.Args
				case "NewPCG", "NewChaCha8": // math/rand/v2 constructors
					seedArgs = call.Args
				default:
					return true
				}
				for _, arg := range seedArgs {
					if bad, ok := disallowedSeedExpr(pass.TypesInfo, arg, allowed); ok {
						pass.Reportf(bad.Pos(),
							"seed expression must be a plain seed value or an FNV-1a deriver call (%s): ad-hoc arithmetic correlates random streams across experiments", exampleDeriver(derivers))
					}
				}
				return true
			})
		}
		return nil
	}
	return a
}

func exampleDeriver(derivers []string) string {
	if len(derivers) == 0 {
		return "subSeed"
	}
	return derivers[0]
}

// disallowedSeedExpr reports whether e is an unacceptable seed derivation.
// Conversions and parens are looked through; the residue must be an
// identifier, selector, literal, or a call to an allowed deriver.
func disallowedSeedExpr(info *types.Info, e ast.Expr, allowed map[string]bool) (ast.Expr, bool) {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.BasicLit:
		return nil, false
	case *ast.UnaryExpr:
		// A negated literal (rand.NewSource(-1)) is still a constant seed.
		if _, ok := ast.Unparen(x.X).(*ast.BasicLit); ok {
			return nil, false
		}
		return e, true
	case *ast.CallExpr:
		// Type conversion: look through to the operand.
		if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return disallowedSeedExpr(info, x.Args[0], allowed)
		}
		// Deriver call: allowed by name (package function or method).
		var name string
		switch fun := ast.Unparen(x.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		if allowed[name] {
			return nil, false
		}
		return e, true
	default:
		return e, true
	}
}
