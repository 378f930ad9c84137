package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Per-function effect summaries. Each declared function gets the set of
// impurity effects its body exhibits directly (Own sinks); Summarize then
// propagates the sets bottom-up over the call graph's strongly connected
// components, so a function's Transitive set answers "can anything this
// calls, at any depth, reach wall-clock / the global rand / map-ordered
// output / the environment / the filesystem / package-level state?" —
// the question the deterministic certifier (certify.go) asks of every
// experiment builder.
//
// The summary lattice is a six-bit powerset: effects only accumulate, and
// propagation is a monotone union, so the SCC fixpoint is trivially the
// union over members. Precision limits are the call graph's (see
// callgraph.go): unresolvable dynamic calls propagate nothing, and writes
// through pointer parameters are invisible. Both err toward missing an
// impurity rather than inventing one, which is why the certifier is the
// complement of — not a replacement for — the golden bit-identity tests.

// Effect is one impurity class.
type Effect uint8

const (
	// EffectWallClock marks time.Now/Since/Until reads.
	EffectWallClock Effect = iota
	// EffectGlobalRand marks draws from the process-global math/rand.
	EffectGlobalRand
	// EffectMapOrder marks map-iteration order leaking into output
	// (analysis.CheckMapOrder's contract).
	EffectMapOrder
	// EffectEnvRead marks environment reads (os.Getenv and friends).
	EffectEnvRead
	// EffectFSRead marks filesystem access through package os.
	EffectFSRead
	// EffectGlobalWrite marks writes to package-level state — shared
	// mutable state whose observable effect can depend on run order unless
	// the function proves otherwise (//lint:trust).
	EffectGlobalWrite

	numEffects
)

// String names the effect as shown in certifier diagnostics.
func (e Effect) String() string {
	switch e {
	case EffectWallClock:
		return "wall-clock"
	case EffectGlobalRand:
		return "global-rand"
	case EffectMapOrder:
		return "map-order"
	case EffectEnvRead:
		return "env-read"
	case EffectFSRead:
		return "fs-read"
	case EffectGlobalWrite:
		return "global-write"
	}
	return "unknown"
}

// allowNames returns the //lint:allow analyzer names that silence a sink of
// this effect at its site: "deterministic" always works, and the effects
// that mirror an intraprocedural analyzer also honor that analyzer's name,
// so one reasoned allow satisfies both the per-package gate and the
// certifier.
func (e Effect) allowNames() []string {
	switch e {
	case EffectWallClock, EffectGlobalRand:
		return []string{"deterministic", "detrand"}
	case EffectMapOrder:
		return []string{"deterministic", "maporder"}
	}
	return []string{"deterministic"}
}

// EffectSet is a bitmask over Effect.
type EffectSet uint8

// Has reports whether e is in the set.
func (s EffectSet) Has(e Effect) bool { return s&(1<<e) != 0 }

func (s *EffectSet) add(e Effect) { *s |= 1 << e }

// Effects lists the set's members in declaration order.
func (s EffectSet) Effects() []Effect {
	var out []Effect
	for e := Effect(0); e < numEffects; e++ {
		if s.Has(e) {
			out = append(out, e)
		}
	}
	return out
}

// String renders the set compactly ("wall-clock|global-write").
func (s EffectSet) String() string {
	var names []string
	for _, e := range s.Effects() {
		names = append(names, e.String())
	}
	if len(names) == 0 {
		return "pure"
	}
	return strings.Join(names, "|")
}

// Sink is one direct impurity site inside a function body.
type Sink struct {
	Effect Effect
	Pos    token.Pos
	Desc   string
}

// Summary is one function's effect summary.
type Summary struct {
	Node *Node
	// Own are the function's direct sinks, suppression-filtered: a sink
	// whose line carries //lint:allow for the effect's analyzer names does
	// not contribute.
	Own []Sink
	// Trusted marks a //lint:trust directive on the declaration: the whole
	// subtree under this function is vouched for by the written reason, and
	// Transitive is forced empty.
	Trusted     bool
	TrustReason string
	// Transitive is the propagated effect set: Own plus everything
	// reachable through Calls.
	Transitive EffectSet
}

// Summaries holds the propagated module summaries.
type Summaries struct {
	Graph *CallGraph
	ByKey map[FuncKey]*Summary
	// Malformed collects broken //lint:trust directives (missing reason,
	// name not matching the trusted declaration, directive outside any
	// function's doc comment); the driver reports them as findings.
	Malformed []Diagnostic
}

const trustPrefix = "//lint:trust"

// Summarize computes suppression-aware own-effect summaries for every node
// in g and propagates them bottom-up through the condensation's strongly
// connected components.
func Summarize(g *CallGraph) *Summaries {
	s := &Summaries{Graph: g, ByKey: make(map[FuncKey]*Summary, len(g.Nodes))}
	sups := map[*Package]*suppressionSet{}
	supFor := func(pkg *Package) *suppressionSet {
		set, ok := sups[pkg]
		if !ok {
			set = collectSuppressions(pkg.Fset, pkg.Files)
			sups[pkg] = set
		}
		return set
	}

	handledTrust := map[token.Pos]bool{}
	keys := g.sortedKeys()
	for _, key := range keys {
		node := g.Nodes[key]
		sum := &Summary{Node: node}
		s.collectTrust(node, sum, handledTrust)
		if !sum.Trusted {
			sum.Own = collectSinks(node, supFor(node.Pkg))
		}
		s.ByKey[key] = sum
	}
	s.reportStrayTrust(handledTrust)
	s.propagate(keys)
	return s
}

// collectTrust parses a //lint:trust directive from node's doc comment.
func (s *Summaries) collectTrust(node *Node, sum *Summary, handled map[token.Pos]bool) {
	if node.Decl.Doc == nil {
		return
	}
	for _, c := range node.Decl.Doc.List {
		text := strings.TrimSpace(c.Text)
		if !strings.HasPrefix(text, trustPrefix) {
			continue
		}
		handled[c.Pos()] = true
		rest := strings.TrimSpace(strings.TrimPrefix(text, trustPrefix))
		name, reason, _ := strings.Cut(rest, " ")
		reason = strings.TrimSpace(reason)
		pos := node.Pkg.Fset.Position(c.Pos())
		switch {
		case name == "" || reason == "":
			s.Malformed = append(s.Malformed, Diagnostic{
				Pos:      pos,
				Analyzer: "linttrust",
				Message:  "//lint:trust needs the trusted function's name and a written reason: //lint:trust <func> <reason>",
			})
		case name != node.Decl.Name.Name:
			s.Malformed = append(s.Malformed, Diagnostic{
				Pos:      pos,
				Analyzer: "linttrust",
				Message:  fmt.Sprintf("//lint:trust names %q but sits on %q: the directive must name the function it trusts", name, node.Decl.Name.Name),
			})
		default:
			sum.Trusted = true
			sum.TrustReason = reason
		}
	}
}

// reportStrayTrust flags trust directives that are not part of any declared
// function's doc comment: a directive floating in open code trusts nothing
// and would otherwise rot silently.
func (s *Summaries) reportStrayTrust(handled map[token.Pos]bool) {
	seenFile := map[*ast.File]bool{}
	for _, key := range s.Graph.sortedKeys() {
		node := s.Graph.Nodes[key]
		for _, f := range node.Pkg.Files {
			if seenFile[f] {
				continue
			}
			seenFile[f] = true
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(strings.TrimSpace(c.Text), trustPrefix) || handled[c.Pos()] {
						continue
					}
					s.Malformed = append(s.Malformed, Diagnostic{
						Pos:      node.Pkg.Fset.Position(c.Pos()),
						Analyzer: "linttrust",
						Message:  "//lint:trust must sit in the doc comment of the function it trusts",
					})
				}
			}
		}
	}
	SortDiagnostics(s.Malformed)
}

// propagate computes Transitive for every summary, bottom-up over Tarjan
// SCCs (emitted in reverse topological order, so callees finish first).
func (s *Summaries) propagate(keys []FuncKey) {
	index := map[FuncKey]int{}
	low := map[FuncKey]int{}
	onStack := map[FuncKey]bool{}
	var stack []FuncKey
	next := 0
	done := map[FuncKey]bool{}

	var strongconnect func(k FuncKey)
	strongconnect = func(k FuncKey) {
		index[k] = next
		low[k] = next
		next++
		stack = append(stack, k)
		onStack[k] = true

		for _, call := range s.Graph.Nodes[k].Calls {
			w := call.Callee
			if _, known := s.Graph.Nodes[w]; !known {
				continue
			}
			if _, visited := index[w]; !visited {
				strongconnect(w)
				if low[w] < low[k] {
					low[k] = low[w]
				}
			} else if onStack[w] && index[w] < low[k] {
				low[k] = index[w]
			}
		}

		if low[k] == index[k] {
			// Pop the component rooted at k; every edge out of it lands in
			// an already-finalized component.
			var comp []FuncKey
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == k {
					break
				}
			}
			var set EffectSet
			for _, w := range comp {
				sum := s.ByKey[w]
				if sum.Trusted {
					continue
				}
				for _, sink := range sum.Own {
					set.add(sink.Effect)
				}
				for _, call := range s.Graph.Nodes[w].Calls {
					if callee, ok := s.ByKey[call.Callee]; ok && done[call.Callee] {
						set |= callee.Transitive
					}
				}
			}
			for _, w := range comp {
				if !s.ByKey[w].Trusted {
					s.ByKey[w].Transitive = set
				}
				done[w] = true
			}
		}
	}

	for _, k := range keys {
		if _, visited := index[k]; !visited {
			strongconnect(k)
		}
	}
}

// Path returns a deterministic witness call chain from root to the nearest
// function carrying an own sink of effect e, plus that sink. The chain
// includes both endpoints. Returns nil when root cannot reach e (including
// when the reach is only through a trusted function).
func (s *Summaries) Path(root FuncKey, e Effect) ([]FuncKey, *Sink) {
	start, ok := s.ByKey[root]
	if !ok || !start.Transitive.Has(e) {
		return nil, nil
	}
	prev := map[FuncKey]FuncKey{root: root}
	queue := []FuncKey{root}
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		sum := s.ByKey[k]
		if sink := ownSink(sum, e); sink != nil {
			var chain []FuncKey
			for at := k; ; at = prev[at] {
				chain = append([]FuncKey{at}, chain...)
				if at == prev[at] {
					break
				}
			}
			return chain, sink
		}
		for _, call := range sum.Node.Calls { // sorted: deterministic BFS
			callee, known := s.ByKey[call.Callee]
			if !known || callee.Trusted || !callee.Transitive.Has(e) {
				continue
			}
			if _, seen := prev[call.Callee]; seen {
				continue
			}
			prev[call.Callee] = k
			queue = append(queue, call.Callee)
		}
	}
	return nil, nil
}

// ownSink returns sum's first own sink of effect e in position order.
func ownSink(sum *Summary, e Effect) *Sink {
	var best *Sink
	for i := range sum.Own {
		sink := &sum.Own[i]
		if sink.Effect != e {
			continue
		}
		if best == nil || sink.Pos < best.Pos {
			best = sink
		}
	}
	return best
}

// ImpureCall classifies fn, the function an identifier resolves to, against
// the standard library's hidden impurity sources: a draw from the
// process-global math/rand generator (any package-level math/rand or
// math/rand/v2 function but the constructors), a wall-clock read
// (time.Now, Since, Until), an environment read or a filesystem access
// through package os. It returns the effect and the sink's description, or
// false for any other function, methods included: draws from an explicitly
// seeded *rand.Rand are fine. detrand reports the first two classes; the
// effect summaries record all four.
func ImpureCall(fn *types.Func) (Effect, string, bool) {
	if fn.Pkg() == nil {
		return 0, "", false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return 0, "", false
	}
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		if !randConstructors[name] {
			return EffectGlobalRand, "global math/rand." + name, true
		}
	case "time":
		switch name {
		case "Now", "Since", "Until":
			return EffectWallClock, "wall-clock time." + name, true
		}
	case "os":
		if envFuncs[name] {
			return EffectEnvRead, "environment read os." + name, true
		}
		if fsFuncs[name] {
			return EffectFSRead, "filesystem access os." + name, true
		}
	}
	return 0, "", false
}

// randConstructors are the math/rand package-level functions that do not
// touch the global generator.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// envFuncs are the package-os environment reads.
var envFuncs = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true, "Hostname": true,
	"Getpid": true, "Getppid": true, "Getuid": true, "Getwd": true,
	"UserHomeDir": true, "UserCacheDir": true, "UserConfigDir": true,
}

// fsFuncs are the package-os filesystem entry points.
var fsFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "ReadDir": true, "MkdirTemp": true,
	"Stat": true, "Lstat": true, "Remove": true, "RemoveAll": true,
	"Mkdir": true, "MkdirAll": true, "Rename": true, "Chdir": true,
	"Symlink": true, "Link": true, "Truncate": true, "Chmod": true,
}

// collectSinks gathers node's direct impurity sinks, dropping any whose
// line carries a //lint:allow for the effect's analyzer names.
func collectSinks(node *Node, sup *suppressionSet) []Sink {
	var sinks []Sink
	info := node.Pkg.Info
	add := func(e Effect, pos token.Pos, desc string) {
		p := node.Pkg.Fset.Position(pos)
		for _, name := range e.allowNames() {
			if _, ok := sup.allowed(p.Filename, p.Line, name); ok {
				return
			}
		}
		sinks = append(sinks, Sink{Effect: e, Pos: pos, Desc: desc})
	}

	// Known-impure standard-library calls.
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if fn, ok := info.Uses[id].(*types.Func); ok {
			if e, desc, ok := ImpureCall(fn); ok {
				add(e, id.Pos(), desc)
			}
		}
		return true
	})

	// Map-iteration order leaking into output.
	CheckMapOrder(info, node.Decl.Body, func(pos token.Pos, format string, args ...any) {
		add(EffectMapOrder, pos, fmt.Sprintf(format, args...))
	})

	collectGlobalWrites(node, add)

	sort.Slice(sinks, func(i, j int) bool {
		if sinks[i].Pos != sinks[j].Pos {
			return sinks[i].Pos < sinks[j].Pos
		}
		return sinks[i].Effect < sinks[j].Effect
	})
	return sinks
}

// collectGlobalWrites records assignments and ++/-- whose target is rooted
// in a package-level variable, either directly (worldMemo.builds[k]++) or
// through a one-level local alias (m := worldMemo; m.entries[k] = e).
// Deeper aliasing (a pointer threaded through a call) is invisible — the
// certifier under-approximates here by design.
func collectGlobalWrites(node *Node, add func(Effect, token.Pos, string)) {
	info := node.Pkg.Info
	aliases := map[types.Object]string{}

	isGlobalRoot := func(e ast.Expr) (string, bool) {
		id, ok := rootIdent(e)
		if !ok || id.Name == "_" {
			return "", false
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		v, ok := obj.(*types.Var)
		if !ok || v.Pkg() == nil {
			return "", false
		}
		if v.Parent() == v.Pkg().Scope() {
			return v.Name(), true
		}
		if global, aliased := aliases[v]; aliased {
			return fmt.Sprintf("%s (alias of %s)", v.Name(), global), true
		}
		return "", false
	}

	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			if stmt.Tok == token.DEFINE {
				// Track one-level aliases: x := pkgvar or x := &pkgvar.
				for i, rhs := range stmt.Rhs {
					if i >= len(stmt.Lhs) {
						break
					}
					target := ast.Unparen(rhs)
					if u, ok := target.(*ast.UnaryExpr); ok && u.Op == token.AND {
						target = ast.Unparen(u.X)
					}
					id, ok := target.(*ast.Ident)
					if !ok {
						continue
					}
					src, ok := info.Uses[id].(*types.Var)
					if !ok || src.Pkg() == nil || src.Parent() != src.Pkg().Scope() {
						continue
					}
					if lhs, ok := ast.Unparen(stmt.Lhs[i]).(*ast.Ident); ok {
						if def, ok := info.Defs[lhs].(*types.Var); ok {
							aliases[def] = src.Name()
						}
					}
				}
				return true
			}
			for _, lhs := range stmt.Lhs {
				if name, ok := isGlobalRoot(lhs); ok {
					add(EffectGlobalWrite, lhs.Pos(), "write to package-level state "+name)
				}
			}
		case *ast.IncDecStmt:
			if name, ok := isGlobalRoot(stmt.X); ok {
				add(EffectGlobalWrite, stmt.X.Pos(), "write to package-level state "+name)
			}
		}
		return true
	})
}

// rootIdent unwraps selectors, indexes, derefs, and parens down to the
// leftmost identifier of an lvalue.
func rootIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x, true
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}
