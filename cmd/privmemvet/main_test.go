package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// The scratch fixture carries exactly one deliberate violation per
// analyzer; running the driver over it (an ad-hoc file argument, so every
// analyzer applies) must produce exactly one finding each and exit 1.
func TestScratchFixtureFiresEveryAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"../../internal/analysis/testdata/scratch/scratch.go"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, name := range []string{"detrand", "seedflow", "maporder", "mutexscope", "errpath", "purecall", "poolescape", "atomicmix", "floatorder"} {
		if got := strings.Count(out, fmt.Sprintf(": %s: ", name)); got != 1 {
			t.Errorf("%s fired %d time(s) on the scratch fixture, want exactly 1\n%s", name, got, out)
		}
	}
}

func TestListPrintsInventory(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit = %d, stderr: %s", code, stderr.String())
	}
	for _, name := range []string{"detrand", "seedflow", "maporder", "mutexscope", "errpath", "purecall", "poolescape", "atomicmix", "floatorder", "deterministic", "deadexport"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, stdout.String())
		}
	}
}

func TestScopePredicates(t *testing.T) {
	cases := []struct {
		fn   func(string) bool
		path string
		want bool
	}{
		{deterministicScope, "privmem/internal/home", true},
		{deterministicScope, "privmem/internal/attack/niom", true},
		{deterministicScope, "privmem/internal/serve", false},
		{deterministicScope, "privmem/internal/analysis/detrand", false},
		{deterministicScope, "privmem/cmd/memoird", false},
		{deterministicScope, "privmem", true},
		{seedflowScope, "privmem/internal/experiments", true},
		{seedflowScope, "privmem/internal/invariant", true},
		{seedflowScope, "privmem/internal/fleet", true},
		{seedflowScope, "privmem/internal/home", false},
		{errpathScope, "privmem/internal/serve", true},
		{errpathScope, "privmem/cmd/benchjson", true},
		{errpathScope, "privmem/internal/home", false},
	}
	for _, c := range cases {
		if got := c.fn(c.path); got != c.want {
			t.Errorf("scope(%s) = %v, want %v", c.path, got, c.want)
		}
	}
}

// The scratch fixture drives the structured-output modes: -json must carry
// every finding with analyzer and file, and -stats must emit
// benchjson-parseable lines.
func TestJSONAndStats(t *testing.T) {
	scratch := "../../internal/analysis/testdata/scratch/scratch.go"

	var jsonOut, stderr bytes.Buffer
	if code := run([]string{"-json", scratch}, &jsonOut, &stderr); code != 1 {
		t.Fatalf("-json exit = %d, want 1 (scratch has findings)\n%s", code, stderr.String())
	}
	var diags []jsonDiag
	if err := json.Unmarshal(jsonOut.Bytes(), &diags); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, jsonOut.String())
	}
	if len(diags) != 9 {
		t.Errorf("-json carries %d findings, want 9 (one per analyzer)", len(diags))
	}

	var statsOut bytes.Buffer
	if code := run([]string{"-stats", scratch}, &statsOut, &stderr); code != 0 {
		t.Fatalf("-stats exit = %d\n%s", code, stderr.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(statsOut.String()), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 8 || !strings.HasPrefix(fields[0], "BenchmarkLint/") ||
			fields[3] != "ns/op" || fields[5] != "findings" || fields[7] != "suppressed" {
			t.Errorf("-stats line not benchjson-shaped: %q", line)
		}
	}
	if !strings.Contains(statsOut.String(), "BenchmarkLint/total ") {
		t.Errorf("-stats missing the total line:\n%s", statsOut.String())
	}
}
