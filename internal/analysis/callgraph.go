package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Call-graph construction for the interprocedural engine. The graph covers
// every function and method declared (with a body) in the loaded packages.
// Edges are conservative over-approximations of "may invoke":
//
//   - a static call (direct call of a package function or a method on a
//     concrete receiver) adds an edge to the callee;
//   - any other *reference* to a function — a function value passed as an
//     argument (memoWorld's build closure parameter, sort.Slice
//     comparators), stored in a composite literal, returned, or assigned —
//     also adds an edge, because a referenced function may be invoked by
//     whoever receives the value;
//   - a function literal's body is attributed to the enclosing declared
//     function: its sinks and calls count as the encloser's. This is what
//     makes effects inside `memoWorld("x", func() {...})` builders visible
//     from the experiment runner that defines the closure.
//
// Unresolvable targets stay out of the graph and act as leaves: calls
// through interface methods and stored function values propagate nothing
// (the known-impure standard-library surface is caught at the call site by
// the sink tables in summary.go, so stdlib internals never need bodies).
// Function literals in package-level variable initializers have no
// enclosing declaration and are skipped; none of the certified paths use
// them for anything beyond allocation (sync.Pool New hooks).

// FuncKey canonically identifies a function or method across separately
// type-checked variants of a package. The plain and test-augmented
// compilations of one package produce distinct *types.Func objects for the
// same declaration; types.Func.FullName (e.g.
// "privmem/internal/home.Simulate", "(*privmem/internal/timeseries.Series).Sum")
// does not, so keys unify cross-package references with the package's own
// declarations.
type FuncKey string

// KeyOf returns fn's canonical graph key.
func KeyOf(fn *types.Func) FuncKey { return FuncKey(fn.FullName()) }

// CallSite is one outgoing reference from a function.
type CallSite struct {
	Callee FuncKey
	Pos    token.Pos
}

// Node is one declared function in the call graph.
type Node struct {
	Key  FuncKey
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls lists every function this one references (deduplicated,
	// sorted by callee key for deterministic traversal).
	Calls []CallSite
}

// CallGraph is the module-wide function graph.
type CallGraph struct {
	Nodes map[FuncKey]*Node
}

// BuildCallGraph constructs the graph over every function declared in pkgs.
// When the same declaration appears in more than one loaded package variant
// (plain and test-augmented), the first occurrence wins; bodies are
// identical, so the choice does not matter.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Nodes: map[FuncKey]*Node{}}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := KeyOf(fn)
				if _, dup := g.Nodes[key]; dup {
					continue
				}
				node := &Node{Key: key, Fn: fn, Decl: fd, Pkg: pkg}
				collectCalls(pkg.Info, fd.Body, node)
				g.Nodes[key] = node
			}
		}
	}
	return g
}

// collectCalls records every function referenced inside body (calls and
// value references alike), deduplicated and sorted.
func collectCalls(info *types.Info, body *ast.BlockStmt, node *Node) {
	seen := map[FuncKey]token.Pos{}
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		key := KeyOf(fn)
		if _, dup := seen[key]; !dup {
			seen[key] = id.Pos()
		}
		return true
	})
	node.Calls = make([]CallSite, 0, len(seen))
	for key, pos := range seen {
		node.Calls = append(node.Calls, CallSite{Callee: key, Pos: pos})
	}
	sort.Slice(node.Calls, func(i, j int) bool { return node.Calls[i].Callee < node.Calls[j].Callee })
}

// SortedNodes returns the graph's nodes in deterministic key order.
func (g *CallGraph) SortedNodes() []*Node {
	keys := g.sortedKeys()
	nodes := make([]*Node, len(keys))
	for i, k := range keys {
		nodes[i] = g.Nodes[k]
	}
	return nodes
}

// sortedKeys returns the graph's node keys in deterministic order.
func (g *CallGraph) sortedKeys() []FuncKey {
	keys := make([]FuncKey, 0, len(g.Nodes))
	for k := range g.Nodes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
