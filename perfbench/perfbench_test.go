package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the benchmark's child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(runChild(os.Args[2:], os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// resultLine is the benchmark's last output line.
type resultLine struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metric
}

func runTiny(t *testing.T, workload, trace string) resultLine {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny", "--trace-dir", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace %s: exit %d: %s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s trace %s: last line: %v", workload, trace, err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%s trace %s: correct %v, %d of %d failed: %s", workload, trace, r.Correct, r.Failed, r.Attempted, stderr.String())
	}
	return r
}

// TestSmoke runs every workload at tiny size, timed and traced, and checks
// that each prints every metric BENCHMARK.json names, with its unit. The
// tiny suite pass runs only f1 and t6, so the traced run reports no other
// experiment's layers.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, workloads)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the traced run reports %d", len(b.PerLayer), len(perLayer))
	}
	for i := range min(len(b.PerLayer), len(perLayer)) {
		if got, want := b.PerLayer[i], perLayer[i]; got.Name != want.name || got.Unit != want.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s (%s), the traced run reports %s (%s)", i, got.Name, got.Unit, want.name, want.unit)
		}
	}
	for _, w := range workloads {
		for _, mode := range []struct {
			trace string
			want  []struct{ Name, Unit string }
		}{{"0", b.EndToEnd}, {"1", b.PerLayer}} {
			r := runTiny(t, w, mode.trace)
			for _, m := range mode.want {
				if skippedInTiny(m.Name) {
					continue
				}
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w, mode.trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestCorruptDigestCaught runs a tiny suite pass, checks it against the
// stored digests, and then against a table with one digest changed.
func TestCorruptDigestCaught(t *testing.T) {
	p, err := makePlan("suite-cold", 3, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{digests: loadDigests(t)}
	if cfg.exe, err = os.Executable(); err != nil {
		t.Fatal(err)
	}
	c, err := op(cfg, p, "suite", false, newTracer(false), 1)
	if err != nil {
		t.Fatal(err)
	}
	var ok result
	ok.add(c)
	ok.check(cfg, c)
	if ok.failed != 0 {
		t.Fatalf("stored digests: %d failures: %v", ok.failed, ok.errors)
	}

	bad := loadDigests(t)
	id := p.suite.IDs[0]
	bad.Reports[fmt.Sprint(p.suite.Seed)][id] = strings.Repeat("0", 64)
	var caught result
	caught.check(config{digests: bad}, c)
	if caught.failed != 1 {
		t.Fatalf("corrupted digest for %s: %d failures, want 1", id, caught.failed)
	}

	// A fleet summary that differs from the stored one is caught too.
	var fl result
	fl.check(cfg, childResult{Fleet: map[string]string{p.fleet.key(): strings.Repeat("0", 64)}})
	if fl.failed != 1 {
		t.Fatalf("corrupted fleet digest: %d failures, want 1", fl.failed)
	}
}

func loadDigests(t *testing.T) digestTable {
	t.Helper()
	var d digestTable
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestProgramSeesOnlyInputs checks that the workload name and the
// benchmark seed stop at inputs.go: no file that calls into privmem reads
// them, and the plans handed to child processes do not carry them.
func TestProgramSeesOnlyInputs(t *testing.T) {
	selection := map[string]bool{
		"workload": true, "workloads": true, "makePlan": true, "makeServePlan": true,
		"pinnedSeed": true, "pinnedSeeds": true,
	}
	// inputs.go makes the plans; regen.go enumerates every plan to store
	// digests; main.go parses the flags and calls into no privmem package.
	allowed := map[string]bool{"inputs.go": true, "regen.go": true, "main.go": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		callsProgram := false
		for _, imp := range f.Imports {
			if strings.HasPrefix(imp.Path.Value, `"privmem/`) {
				callsProgram = true
			}
		}
		if name == "main.go" && callsProgram {
			t.Errorf("main.go imports a privmem package")
		}
		if !callsProgram || allowed[name] || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				if selection[x.Name] {
					t.Errorf("%s: %s reads %s", name, fset.Position(x.Pos()), x.Name)
				}
			case *ast.SelectorExpr:
				if x.Sel.Name == "workload" {
					t.Errorf("%s: %s reads .workload", name, fset.Position(x.Pos()))
				}
			}
			return true
		})
	}

	for _, w := range workloads {
		p, err := makePlan(w, 12345, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, child := range []any{p.suite, p.serve, p.fleet} {
			raw, err := json.Marshal(child)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(raw, []byte(w)) || bytes.Contains(raw, []byte("12345")) {
				t.Errorf("%s: a child plan carries the workload name or benchmark seed: %.200s", w, raw)
			}
		}
	}
}
