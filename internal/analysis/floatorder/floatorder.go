// Package floatorder flags floating-point accumulation whose summation
// order depends on goroutine scheduling: `sum += v` into a variable
// declared outside a `go func() {...}` literal, or inside a `range` over a
// channel (values arrive in send order, which is scheduling order when the
// senders are concurrent workers). Float addition is not associative, so
// even with a mutex making the accumulation race-free, the result's low
// bits differ run to run — exactly the class of bug that breaks this
// repo's bit-identical (seed,id) contract in cross-worker merge paths.
// The fix is the repo's standard partition-then-reduce shape: accumulate
// per worker (or store into an indexed slot) and reduce sequentially in a
// fixed order.
//
// Function literals handed to a fan-out helper (internal/par's Do and For)
// run on worker goroutines too, so their bodies are checked exactly like
// `go` statement bodies.
//
// Map-range float accumulation is the maporder analyzer's half of the same
// contract; this package covers the goroutine half.
package floatorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"privmem/internal/analysis"
)

// FanOuts names the package-level functions (package path -> function
// names) whose function-literal arguments run concurrently.
type FanOuts map[string][]string

// Analyzer is the floatorder check with the repository's fan-out helper.
var Analyzer = New(FanOuts{"privmem/internal/par": {"Do", "For"}})

// New returns a floatorder analyzer that also treats function literals
// passed to the given fan-out functions as goroutine bodies.
func New(fanOuts FanOuts) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "floatorder",
		Doc:  "flag float accumulation in goroutine-scheduling or channel-arrival order",
	}
	a.Run = func(pass *analysis.Pass) error { return run(pass, fanOuts) }
	return a
}

func run(pass *analysis.Pass, fanOuts FanOuts) error {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.GoStmt:
				if lit, ok := ast.Unparen(stmt.Call.Fun).(*ast.FuncLit); ok {
					checkAccum(pass, lit.Body, lit.Pos(),
						"goroutine-scheduling order (go statement)")
				}
			case *ast.CallExpr:
				fn := analysis.Callee(info, stmt)
				if !isFanOut(fn, fanOuts) {
					return true
				}
				for _, arg := range stmt.Args {
					if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						checkAccum(pass, lit.Body, lit.Pos(),
							"goroutine-scheduling order ("+fn.Pkg().Name()+"."+fn.Name()+" argument)")
					}
				}
			case *ast.RangeStmt:
				tv, ok := info.Types[stmt.X]
				if !ok {
					return true
				}
				if _, isChan := types.Unalias(tv.Type).Underlying().(*types.Chan); isChan {
					checkAccum(pass, stmt.Body, stmt.Pos(), "channel-arrival order")
				}
			}
			return true
		})
	}
	return nil
}

// isFanOut reports whether fn is one of the configured fan-out functions.
func isFanOut(fn *types.Func, fanOuts FanOuts) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	for _, name := range fanOuts[fn.Pkg().Path()] {
		if analysis.IsPackageFunc(fn, fn.Pkg().Path(), name) {
			return true
		}
	}
	return false
}

// checkAccum reports op-assign float accumulation inside body into
// variables declared before boundary (i.e. outside the concurrent region).
func checkAccum(pass *analysis.Pass, body *ast.BlockStmt, boundary token.Pos, how string) {
	info := pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN:
		default:
			return true
		}
		obj := lhsObject(info, as.Lhs[0])
		if obj == nil || obj.Pos() >= boundary {
			return true // accumulator local to the goroutine / loop body
		}
		basic, ok := types.Unalias(obj.Type()).Underlying().(*types.Basic)
		if !ok || basic.Info()&types.IsFloat == 0 {
			return true // integer accumulation is associative; arrival order is fine
		}
		pass.Reportf(as.Pos(),
			"floating-point accumulation into %s in %s: float addition is not associative, so the result's bits vary run to run; accumulate per worker and reduce in fixed order", objName(as.Lhs[0]), how)
		return true
	})
}

// lhsObject resolves the variable (or field) an accumulation target refers
// to. Indexed targets (results[i] += v) resolve to the slice variable —
// still order-dependent if the same slot is shared, but an indexed slot per
// worker is the recommended fix, so indexing is treated as partitioned and
// skipped.
func lhsObject(info *types.Info, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[x]; obj != nil {
			return obj
		}
		return info.Defs[x]
	case *ast.SelectorExpr:
		return info.Uses[x.Sel]
	case *ast.StarExpr:
		return lhsObject(info, x.X)
	}
	return nil
}

func objName(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return objName(x.X) + "." + x.Sel.Name
	case *ast.StarExpr:
		return objName(x.X)
	}
	return "accumulator"
}
