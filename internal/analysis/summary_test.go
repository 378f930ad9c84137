package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// checkSrc parses and type-checks src as a single-file package and wraps it
// as an analyzable Package.
func checkSrc(t *testing.T, path, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path+".go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	tpkg, info, err := typecheck(fset, importer.ForCompiler(fset, "gc", nil), path, []*ast.File{f})
	if err != nil {
		t.Fatal(err)
	}
	return &Package{ImportPath: path, Dir: ".", Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}
}

const engineSrc = `package engine

import (
	"math/rand"
	"os"
	"time"
)

var counter int

func clock() time.Time { return time.Now() }

func viaClock() time.Time { return clock() }

func draws() int { return rand.Intn(6) }

func seeded(seed int64) int {
	return rand.New(rand.NewSource(seed)).Intn(6)
}

func readsEnv() string { return os.Getenv("HOME") }

func readsFile() ([]byte, error) { return os.ReadFile("x") }

func writesGlobal() { counter++ }

func writesAliased() {
	c := &counter
	*c = 5
}

//lint:trust vouched intentionally impure for the test
func vouched() time.Time { return time.Now() }

func viaVouched() time.Time { return vouched() }

func allowedSink() time.Time {
	return time.Now() //lint:allow deterministic test fixture says this is fine
}

func viaClosure() {
	helper(func() { _ = time.Now() })
}

func helper(f func()) { f() }

func mutualA(n int) int {
	if n <= 0 {
		return rand.Intn(2)
	}
	return mutualB(n - 1)
}

func mutualB(n int) int { return mutualA(n) }

func mapLeak(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

func pure(x int) int { return x * 2 }
`

func summarizeEngine(t *testing.T) *Summaries {
	t.Helper()
	pkg := checkSrc(t, "engine", engineSrc)
	return Summarize(BuildCallGraph([]*Package{pkg}))
}

func engineKey(name string) FuncKey { return FuncKey("engine." + name) }

func TestSummaryOwnAndTransitiveEffects(t *testing.T) {
	s := summarizeEngine(t)
	cases := []struct {
		fn     string
		effect Effect
		want   bool
	}{
		{"clock", EffectWallClock, true},
		{"viaClock", EffectWallClock, true}, // propagated one level
		{"draws", EffectGlobalRand, true},
		{"seeded", EffectGlobalRand, false}, // explicit source is allowed
		{"readsEnv", EffectEnvRead, true},
		{"readsFile", EffectFSRead, true},
		{"writesGlobal", EffectGlobalWrite, true},
		{"writesAliased", EffectGlobalWrite, true}, // one-level alias tracked
		{"vouched", EffectWallClock, false},        // trusted: summary forced empty
		{"viaVouched", EffectWallClock, false},     // trust cuts propagation
		{"allowedSink", EffectWallClock, false},    // //lint:allow at the sink
		{"viaClosure", EffectWallClock, true},      // FuncLit body attributed to encloser
		{"mutualA", EffectGlobalRand, true},        // SCC fixpoint
		{"mutualB", EffectGlobalRand, true},
		{"mapLeak", EffectMapOrder, true},
		{"pure", EffectWallClock, false},
	}
	for _, c := range cases {
		sum, ok := s.ByKey[engineKey(c.fn)]
		if !ok {
			t.Fatalf("no summary for %s", c.fn)
		}
		if got := sum.Transitive.Has(c.effect); got != c.want {
			t.Errorf("%s reaches %s = %v, want %v (transitive=%s)", c.fn, c.effect, got, c.want, sum.Transitive)
		}
	}
	if sum := s.ByKey[engineKey("vouched")]; !sum.Trusted || sum.TrustReason == "" {
		t.Errorf("vouched: Trusted=%v reason=%q, want trusted with a reason", sum.Trusted, sum.TrustReason)
	}
	if len(s.Malformed) != 0 {
		t.Errorf("unexpected malformed directives: %v", s.Malformed)
	}
}

func TestSummaryWitnessPath(t *testing.T) {
	s := summarizeEngine(t)
	chain, sink := s.Path(engineKey("viaClock"), EffectWallClock)
	if sink == nil {
		t.Fatal("no witness path from viaClock to the wall-clock sink")
	}
	want := []FuncKey{engineKey("viaClock"), engineKey("clock")}
	if len(chain) != len(want) || chain[0] != want[0] || chain[1] != want[1] {
		t.Errorf("witness chain = %v, want %v", chain, want)
	}
	if !strings.Contains(sink.Desc, "time.Now") {
		t.Errorf("sink desc = %q, want the time.Now mention", sink.Desc)
	}
	if chain, _ := s.Path(engineKey("pure"), EffectWallClock); chain != nil {
		t.Errorf("pure has a witness path: %v", chain)
	}
}

func TestCertifyReportsAtSinkWithChain(t *testing.T) {
	s := summarizeEngine(t)
	diags := Certify(s, []FuncKey{engineKey("viaClock"), engineKey("clock")})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1 (deduped by sink): %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "deterministic" {
		t.Errorf("analyzer = %q, want deterministic", d.Analyzer)
	}
	if !strings.Contains(d.Message, "wall-clock") || !strings.Contains(d.Message, "viaClock -> ") {
		t.Errorf("message = %q, want the effect and a witness chain", d.Message)
	}
	if clean := Certify(s, []FuncKey{engineKey("pure"), engineKey("seeded"), FuncKey("engine.nonexistent")}); len(clean) != 0 {
		t.Errorf("pure roots certified with findings: %v", clean)
	}
}

func TestTrustDirectiveValidation(t *testing.T) {
	const src = `package trustbad

//lint:trust wrongname because the names disagree
func actual() {}

//lint:trust noreason
func noreason() {}

func carrier() {
	//lint:trust stray directives outside doc comments trust nothing
	_ = 1
}
`
	pkg := checkSrc(t, "trustbad", src)
	s := Summarize(BuildCallGraph([]*Package{pkg}))
	if len(s.Malformed) != 3 {
		t.Fatalf("got %d malformed directives, want 3: %v", len(s.Malformed), s.Malformed)
	}
	var wrongName, missingReason, stray bool
	for _, d := range s.Malformed {
		if d.Analyzer != "linttrust" {
			t.Errorf("malformed directive reported as %q, want linttrust", d.Analyzer)
		}
		switch {
		case strings.Contains(d.Message, "names \"wrongname\""):
			wrongName = true
		case strings.Contains(d.Message, "needs the trusted function's name"):
			missingReason = true
		case strings.Contains(d.Message, "must sit in the doc comment"):
			stray = true
		}
	}
	if !wrongName || !missingReason || !stray {
		t.Errorf("wrongName=%v missingReason=%v stray=%v, want all three shapes reported: %v",
			wrongName, missingReason, stray, s.Malformed)
	}
}

func TestCheckMapOrderShapes(t *testing.T) {
	const src = `package maps

import (
	"fmt"
	"sort"
	"strings"
)

func flaggedAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

func cleanSortedAfter(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func flaggedSink(m map[string]int, b *strings.Builder) {
	for k := range m {
		b.WriteString(k)
	}
}

func flaggedPrint(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}

func flaggedFloat(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum
}

func cleanLocalAppend(m map[string]map[string]int) {
	for _, inner := range m {
		var local []string
		for k := range inner {
			local = append(local, k)
		}
		sort.Strings(local)
		_ = local
	}
}
`
	pkg := checkSrc(t, "maps", src)
	perFunc := map[string]int{}
	for _, decl := range pkg.Files[0].Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		CheckMapOrder(pkg.Info, fd.Body, func(pos token.Pos, format string, args ...any) {
			perFunc[fd.Name.Name]++
		})
	}
	want := map[string]int{
		"flaggedAppend": 1, "cleanSortedAfter": 0, "flaggedSink": 1,
		"flaggedPrint": 1, "flaggedFloat": 1, "cleanLocalAppend": 0,
	}
	for fn, n := range want {
		if perFunc[fn] != n {
			t.Errorf("%s: %d findings, want %d", fn, perFunc[fn], n)
		}
	}
}
