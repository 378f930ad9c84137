// Package detrand forbids hidden nondeterminism sources — the process-wide
// math/rand generator and wall-clock reads — in the repository's
// deterministic packages (the simulators, attacks, defenses, and
// experiment generators whose entire output must be a pure function of the
// seed; see DESIGN.md §8).
//
// Flagged:
//   - any use of a math/rand or math/rand/v2 package-level function other
//     than the constructors (rand.Intn, rand.Float64, rand.Shuffle, ...):
//     these draw from the global generator, whose stream is shared across
//     goroutines and reseeded per process;
//   - time.Now, time.Since, time.Until: wall-clock reads that make output
//     depend on when — not just with which seed — the code ran.
//
// Allowed: rand.New, rand.NewSource, rand.NewZipf, rand.NewPCG and every
// use of an explicitly seeded *rand.Rand. Packages where wall-clock is the
// point (the serving layer's latency metrics, the CLIs' progress output)
// are excluded by the driver's scope, not by this analyzer.
package detrand

import (
	"go/ast"
	"go/types"

	"privmem/internal/analysis"
)

// Analyzer is the detrand check.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc:  "forbid global math/rand and wall-clock reads in deterministic packages",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			// The classifier is the effect summaries' own, so this
			// per-package gate and the certifier agree on what is impure;
			// env and filesystem reads are the certifier's alone.
			e, _, impure := analysis.ImpureCall(fn)
			if !impure {
				return true
			}
			switch e {
			case analysis.EffectGlobalRand:
				pass.Reportf(id.Pos(),
					"use of global math/rand.%s: deterministic packages must draw from an explicitly seeded rand.New(rand.NewSource(seed))", fn.Name())
			case analysis.EffectWallClock:
				pass.Reportf(id.Pos(),
					"wall-clock time.%s in a deterministic package: derive instants from the simulated world's epoch, not from when the code runs", fn.Name())
			}
			return true
		})
	}
	return nil
}
