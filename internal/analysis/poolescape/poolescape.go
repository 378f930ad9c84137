// Package poolescape flags sync.Pool values that leave the Get/Put window:
// a pooled object returned from the function that obtained it, stored into
// package-level state, or used again after being Put back. The pool is free
// to hand a Put value to another goroutine immediately, so every one of
// these is a latent data race — and in this repo's scratch-arena usage
// (decode scratch rows, fleet merge buffers) the symptom is silent
// corruption of a neighboring experiment's floats rather than a crash.
//
// The analysis is intraprocedural and tracks variables bound directly to a
// `pool.Get()` result (with or without a type assertion). Escapes through
// helper calls are the certifier's territory; this analyzer catches the
// shapes that actually occur in arena code.
package poolescape

import (
	"go/ast"
	"go/token"
	"go/types"

	"privmem/internal/analysis"
)

// Analyzer is the poolescape check.
var Analyzer = &analysis.Analyzer{
	Name: "poolescape",
	Doc:  "flag sync.Pool values that escape (return, global store) or are used after Put",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				checkBody(pass, fd.Body)
			}
		}
	}
	return nil
}

// poolMethod reports whether call invokes the named method on a
// *sync.Pool receiver.
func poolMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	fn := analysis.Callee(info, call)
	if fn == nil || fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := types.Unalias(recv).(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := types.Unalias(recv).(*types.Named)
	return ok && named.Obj().Name() == "Pool"
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo

	// Pass 1: variables bound to pool.Get() results, and non-deferred Put
	// positions per variable.
	pooled := map[types.Object]token.Pos{}
	putAt := map[types.Object]token.Pos{}
	putArgs := map[*ast.Ident]bool{}
	var deferRanges [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.DeferStmt:
			deferRanges = append(deferRanges, [2]token.Pos{stmt.Pos(), stmt.End()})
		case *ast.AssignStmt:
			for i, rhs := range stmt.Rhs {
				if i >= len(stmt.Lhs) {
					break
				}
				expr := ast.Unparen(rhs)
				if ta, ok := expr.(*ast.TypeAssertExpr); ok {
					expr = ast.Unparen(ta.X)
				}
				call, ok := expr.(*ast.CallExpr)
				if !ok || !poolMethod(info, call, "Get") {
					continue
				}
				if id, ok := ast.Unparen(stmt.Lhs[i]).(*ast.Ident); ok && id.Name != "_" {
					if obj := info.Defs[id]; obj != nil {
						pooled[obj] = id.Pos()
					} else if obj := info.Uses[id]; obj != nil {
						pooled[obj] = id.Pos()
					}
				}
			}
		}
		return true
	})
	if len(pooled) == 0 {
		return
	}
	inDefer := func(pos token.Pos) bool {
		for _, r := range deferRanges {
			if pos >= r[0] && pos < r[1] {
				return true
			}
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !poolMethod(info, call, "Put") || len(call.Args) == 0 {
			return true
		}
		arg := ast.Unparen(call.Args[0])
		if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
			arg = ast.Unparen(u.X)
		}
		id, ok := arg.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if _, isPooled := pooled[obj]; !isPooled {
			return true
		}
		putArgs[id] = true
		if !inDefer(call.Pos()) {
			if at, seen := putAt[obj]; !seen || call.Pos() < at {
				putAt[obj] = call.Pos()
			}
		}
		return true
	})

	// Pass 2: escapes and use-after-Put.
	ast.Inspect(body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.ReturnStmt:
			// Only a returned pooled value itself (or its address) escapes;
			// method calls on it (b.String(), b.Len()) return derived copies.
			for _, res := range stmt.Results {
				expr := ast.Unparen(res)
				if u, ok := expr.(*ast.UnaryExpr); ok && u.Op == token.AND {
					expr = ast.Unparen(u.X)
				}
				id, ok := expr.(*ast.Ident)
				if !ok {
					continue
				}
				if obj := info.Uses[id]; obj != nil {
					if _, isPooled := pooled[obj]; isPooled {
						pass.Reportf(id.Pos(), "pooled value %s escapes via return: the pool may hand it to another goroutine after Put; copy it out or do not pool it", id.Name)
					}
				}
			}
		case *ast.AssignStmt:
			if stmt.Tok == token.DEFINE {
				return true
			}
			for i, rhs := range stmt.Rhs {
				if i >= len(stmt.Lhs) {
					break
				}
				id, ok := ast.Unparen(rhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Uses[id]
				if _, isPooled := pooled[obj]; !isPooled {
					continue
				}
				if global, ok := globalRoot(info, stmt.Lhs[i]); ok {
					pass.Reportf(id.Pos(), "pooled value %s stored in package-level %s: it escapes the Get/Put window", id.Name, global)
				}
			}
		case *ast.Ident:
			obj := info.Uses[stmt]
			if obj == nil || putArgs[stmt] {
				return true
			}
			if put, hasPut := putAt[obj]; hasPut && stmt.Pos() > put {
				if _, isPooled := pooled[obj]; isPooled {
					pass.Reportf(stmt.Pos(), "use of pooled value %s after Put: the pool may already have handed it to another goroutine", stmt.Name)
				}
			}
		}
		return true
	})
}

// globalRoot resolves the leftmost identifier of lhs and reports its name
// when it is a package-level variable.
func globalRoot(info *types.Info, lhs ast.Expr) (string, bool) {
	e := lhs
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			v, ok := info.Uses[x].(*types.Var)
			if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
				return "", false
			}
			return v.Name(), true
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return "", false
		}
	}
}
