// Package deadexport is the whole-program unused-export check: it flags
// every exported package-level func, method, var, const and type declared
// in a non-test file under <module>/internal/ that no non-test file of the
// loaded universes references. cmd/privmemvet runs it when ./... is linted
// at the module root, with perfbench (a separate module that calls this
// one) as a second universe.
//
// Declarations and uses are matched by canonical name (types.Func.FullName,
// or package path plus name), never by position or object identity: the
// plain and test-augmented variants of a package, and a second module's
// export-data view of it, are different type-checker objects.
//
// Also counted as used: the methods of an internal type the facade (the
// module root package) aliases, which are public API, and a method whose
// name and signature match a method of some interface in the program
// (String, Import, ...). Struct fields are out of scope, because encoders
// and reflection read them. internal/invariant and internal/analysis/antest
// exist for tests and are exempt.
package deadexport

import (
	"go/ast"
	"go/types"
	"strings"

	"privmem/internal/analysis"
)

// Name is the analyzer name in diagnostics and //lint:allow comments.
const Name = "deadexport"

// Doc describes the check for privmemvet -list.
const Doc = "whole-program check: an exported internal/ declaration needs a non-test reference in the module or perfbench"

// Check reports the unused exports of module's internal packages. The
// first universe is the module itself; the others contribute uses only.
// Findings a //lint:allow deadexport silences come back marked Suppressed.
func Check(module string, universes ...[]*analysis.Package) []analysis.Diagnostic {
	internal := module + "/internal/"
	used := map[string]bool{}
	ifaceMethods := map[string]bool{} // name + signature of every interface method
	scopes := map[*types.Scope]bool{}
	addScope := func(scope *types.Scope) {
		if scopes[scope] {
			return
		}
		scopes[scope] = true
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addInterface(ifaceMethods, tn.Type().Underlying())
			}
		}
	}
	addScope(types.Universe)
	for _, pkgs := range universes {
		for _, pkg := range pkgs {
			for _, f := range nonTestFiles(pkg) {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						used[key(pkg.Info.Uses[n])] = true
					case *ast.InterfaceType:
						addInterface(ifaceMethods, pkg.Info.Types[n].Type)
					}
					return true
				})
			}
			addScope(pkg.Types.Scope())
			for _, imp := range pkg.Types.Imports() {
				addScope(imp.Scope())
			}
		}
	}
	for _, pkg := range universes[0] {
		if pkg.ImportPath != module {
			continue
		}
		for _, name := range pkg.Types.Scope().Names() {
			tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.IsAlias() {
				continue
			}
			if named := analysis.NamedType(tn.Type()); named != nil && strings.HasPrefix(key(named.Obj()), internal) {
				for i := 0; i < named.NumMethods(); i++ {
					used[key(named.Method(i))] = true
				}
			}
		}
	}

	var diags []analysis.Diagnostic
	report := func(pkg *analysis.Package, id *ast.Ident, kind string) {
		k := key(pkg.Info.Defs[id])
		if !id.IsExported() || k == "" || used[k] {
			return
		}
		if fn, ok := pkg.Info.Defs[id].(*types.Func); ok && kind == "method" && ifaceMethods[fn.Name()+spell(fn.Type())] {
			return
		}
		diags = append(diags, analysis.Diagnostic{
			Pos:      pkg.Fset.Position(id.Pos()),
			Analyzer: Name,
			Message:  "exported " + kind + " " + strings.ReplaceAll(k, internal, "") + " has no non-test reference",
		})
	}
	for _, pkg := range universes[0] {
		path := pkg.ImportPath
		if !strings.HasPrefix(path, internal) || strings.HasPrefix(path, internal+"invariant") || path == internal+"analysis/antest" {
			continue
		}
		for _, f := range nonTestFiles(pkg) {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					kind := "func"
					if d.Recv != nil {
						kind = "method"
					}
					report(pkg, d.Name, kind)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							report(pkg, s.Name, "type")
						case *ast.ValueSpec:
							for _, id := range s.Names {
								report(pkg, id, strings.ToLower(d.Tok.String()))
							}
						}
					}
				}
			}
		}
	}
	analysis.MarkSuppressed(universes[0], diags)
	analysis.SortDiagnostics(diags)
	return diags
}

// key returns obj's canonical name, or "" for objects the check ignores
// (locals, fields, labels, builtins).
func key(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin().FullName()
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func nonTestFiles(pkg *analysis.Package) []*ast.File {
	var out []*ast.File
	for _, f := range pkg.Files {
		if !strings.HasSuffix(pkg.Fset.File(f.Pos()).Name(), "_test.go") {
			out = append(out, f)
		}
	}
	return out
}

// addInterface records the name and signature of each method of t, if t
// is an interface.
func addInterface(set map[string]bool, t types.Type) {
	if it, ok := t.(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			set[it.Method(i).Name()+spell(it.Method(i).Type())] = true
		}
	}
}

// spell renders a signature without parameter names or receiver, naming
// packages by path, so one signature spells the same in every type-check.
func spell(t types.Type) string {
	sig := t.(*types.Signature)
	qual := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tup.Len(); i++ {
			b.WriteString(types.TypeString(tup.At(i).Type(), qual) + ",")
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
