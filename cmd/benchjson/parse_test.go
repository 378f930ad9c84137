package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: privmem/internal/serve
cpu: Fake CPU @ 3.00GHz
BenchmarkReportCacheHit-8    1690336       709.5 ns/op      1104 B/op       9 allocs/op
BenchmarkReportCacheMiss-8        38    30521847 ns/op
PASS
ok  	privmem/internal/serve	3.194s
`

func TestParse(t *testing.T) {
	results, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("parsed %d results, want 2", len(results))
	}
	hit := results[0]
	if hit.Name != "BenchmarkReportCacheHit-8" || hit.Iterations != 1690336 || hit.NsPerOp != 709.5 {
		t.Errorf("hit = %+v", hit)
	}
	if hit.BytesPerOp == nil || *hit.BytesPerOp != 1104 || hit.AllocsPerOp == nil || *hit.AllocsPerOp != 9 {
		t.Errorf("hit mem stats = %v/%v", hit.BytesPerOp, hit.AllocsPerOp)
	}
	miss := results[1]
	if miss.Name != "BenchmarkReportCacheMiss-8" || miss.NsPerOp != 30521847 {
		t.Errorf("miss = %+v", miss)
	}
	if miss.BytesPerOp != nil || miss.AllocsPerOp != nil {
		t.Errorf("miss should have no mem stats: %+v", miss)
	}
}

func TestParseEmptyInputIsEmptyArray(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader("PASS\nok x 0.01s\n"), &out); err != nil {
		t.Fatal(err)
	}
	var results []Result
	if err := json.Unmarshal(out.Bytes(), &results); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if results == nil || len(results) != 0 {
		t.Fatalf("want empty (non-null) array, got %s", out.String())
	}
}

// metricSample is verbatim `go test -bench BenchmarkFigure2Disaggregation
// -benchmem` output from this repo: three custom b.ReportMetric columns
// interleaved with the standard timing and memory columns.
const metricSample = `goos: linux
goarch: amd64
pkg: privmem
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFigure2Disaggregation 	       3	   1251812 ns/op	         1.199 fhmm_fridge	         0.3272 powerplay_fridge	         5.000 powerplay_wins	 1305314 B/op	    3437 allocs/op
PASS
ok  	privmem	0.558s
`

func TestParseKeepsCustomMetrics(t *testing.T) {
	results, err := Parse(strings.NewReader(metricSample))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("parsed %d results, want 1", len(results))
	}
	r := results[0]
	if r.Name != "BenchmarkFigure2Disaggregation" || r.Iterations != 3 || r.NsPerOp != 1251812 {
		t.Errorf("timing fields = %+v", r)
	}
	if r.BytesPerOp == nil || *r.BytesPerOp != 1305314 || r.AllocsPerOp == nil || *r.AllocsPerOp != 3437 {
		t.Errorf("mem stats = %v/%v", r.BytesPerOp, r.AllocsPerOp)
	}
	want := map[string]float64{"fhmm_fridge": 1.199, "powerplay_fridge": 0.3272, "powerplay_wins": 5}
	if len(r.Metrics) != len(want) {
		t.Fatalf("metrics = %v, want %v", r.Metrics, want)
	}
	for unit, v := range want {
		if r.Metrics[unit] != v {
			t.Errorf("metric %s = %v, want %v", unit, r.Metrics[unit], v)
		}
	}
}

func TestParseMetricsSurviveJSONRoundTrip(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader(metricSample), &out); err != nil {
		t.Fatal(err)
	}
	var results []Result
	if err := json.Unmarshal(out.Bytes(), &results); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if len(results) != 1 || results[0].Metrics["powerplay_wins"] != 5 {
		t.Fatalf("round trip lost metrics: %s", out.String())
	}
}

func TestParseRejectsMangledMetricValue(t *testing.T) {
	if _, err := Parse(strings.NewReader("BenchmarkBroken-8 10 1 ns/op junk my_metric\n")); err == nil {
		t.Fatal("mangled metric value accepted")
	}
}

func TestParseRejectsMangledBenchmarkLine(t *testing.T) {
	if _, err := Parse(strings.NewReader("BenchmarkBroken-8 notanumber 1 ns/op\n")); err == nil {
		t.Fatal("mangled benchmark line accepted")
	}
}

func TestRunEmitsValidJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	var results []Result
	if err := json.Unmarshal(out.Bytes(), &results); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("round-tripped %d results, want 2", len(results))
	}
}

// TestRunDiff exercises the warn-only comparison mode: a fresh run against
// a baseline with one regressed, one improved, one new, and one removed
// benchmark.
func TestRunDiff(t *testing.T) {
	base := `[
  {"name": "BenchmarkStable-8", "iterations": 100, "ns_per_op": 1000},
  {"name": "BenchmarkRegressed-8", "iterations": 100, "ns_per_op": 1000},
  {"name": "BenchmarkRemoved-8", "iterations": 100, "ns_per_op": 500}
]`
	basePath := t.TempDir() + "/base.json"
	if err := writeFile(basePath, base); err != nil {
		t.Fatal(err)
	}
	freshText := `BenchmarkStable-8 100 1100 ns/op
BenchmarkRegressed-8 100 2000 ns/op
BenchmarkNew-8 100 10 ns/op
PASS
`
	var out bytes.Buffer
	if err := runDiff(basePath, 0, strings.NewReader(freshText), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"  ok: BenchmarkStable-8:",
		"warn: BenchmarkRegressed-8:",
		"warn: BenchmarkNew-8: not in baseline",
		"warn: BenchmarkRemoved-8: in baseline but not in this run",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("diff output missing %q:\n%s", want, got)
		}
	}
}

// TestRunDiffAllocs exercises the allocs/op column: a benchmark whose timing
// holds steady but whose allocation count grows past the guard is flagged.
func TestRunDiffAllocs(t *testing.T) {
	base := `[
  {"name": "BenchmarkLean-8", "iterations": 100, "ns_per_op": 1000, "bytes_per_op": 64, "allocs_per_op": 10},
  {"name": "BenchmarkLeaky-8", "iterations": 100, "ns_per_op": 1000, "bytes_per_op": 64, "allocs_per_op": 100}
]`
	basePath := t.TempDir() + "/base.json"
	if err := writeFile(basePath, base); err != nil {
		t.Fatal(err)
	}
	freshText := `BenchmarkLean-8 100 1000 ns/op 64 B/op 10 allocs/op
BenchmarkLeaky-8 100 1000 ns/op 64 B/op 150 allocs/op
PASS
`
	var out bytes.Buffer
	if err := runDiff(basePath, 0, strings.NewReader(freshText), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"  ok: BenchmarkLean-8:",
		"10 allocs/op vs 10 (1.00x)",
		"warn: BenchmarkLeaky-8:",
		"150 allocs/op vs 100 (1.50x)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("diff output missing %q:\n%s", want, got)
		}
	}
}

// TestRunDiffFailPct exercises the opt-in gate: with -fail-pct set, timing
// or allocation regressions past the threshold turn into an error (after all
// lines print), while clean runs still pass.
func TestRunDiffFailPct(t *testing.T) {
	base := `[
  {"name": "BenchmarkStable-8", "iterations": 100, "ns_per_op": 1000, "allocs_per_op": 10},
  {"name": "BenchmarkSlow-8", "iterations": 100, "ns_per_op": 1000}
]`
	basePath := t.TempDir() + "/base.json"
	if err := writeFile(basePath, base); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	clean := "BenchmarkStable-8 100 1050 ns/op 10 allocs/op\nBenchmarkSlow-8 100 1100 ns/op\nPASS\n"
	if err := runDiff(basePath, 25, strings.NewReader(clean), &out); err != nil {
		t.Fatalf("clean run failed: %v\n%s", err, out.String())
	}

	out.Reset()
	slow := "BenchmarkStable-8 100 1000 ns/op 10 allocs/op\nBenchmarkSlow-8 100 1500 ns/op\nPASS\n"
	if err := runDiff(basePath, 25, strings.NewReader(slow), &out); !errors.Is(err, errRegression) {
		t.Fatalf("timing regression err = %v, want errRegression", err)
	}
	if !strings.Contains(out.String(), "warn: BenchmarkSlow-8:") {
		t.Errorf("regression line missing:\n%s", out.String())
	}

	out.Reset()
	leaky := "BenchmarkStable-8 100 1000 ns/op 20 allocs/op\nBenchmarkSlow-8 100 1000 ns/op\nPASS\n"
	if err := runDiff(basePath, 25, strings.NewReader(leaky), &out); !errors.Is(err, errRegression) {
		t.Fatalf("allocs regression err = %v, want errRegression", err)
	}

	// The same allocation growth without -fail-pct stays warn-only.
	out.Reset()
	if err := runDiff(basePath, 0, strings.NewReader(leaky), &out); err != nil {
		t.Fatalf("warn-only run failed: %v", err)
	}
}

// TestRunDiffAcrossCPUCounts checks that rows match with the -N GOMAXPROCS
// suffix ignored: a 1-CPU baseline row must still gate the same benchmark
// run on two cores, and the output keeps the names as they are.
func TestRunDiffAcrossCPUCounts(t *testing.T) {
	base := `[{"name": "BenchmarkFactorialDecode", "iterations": 100, "ns_per_op": 1000, "allocs_per_op": 100}]`
	basePath := t.TempDir() + "/base.json"
	if err := writeFile(basePath, base); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	fresh := "BenchmarkFactorialDecode-2 260 1000 ns/op 100 B/op 900 allocs/op\nPASS\n"
	if err := runDiff(basePath, 40, strings.NewReader(fresh), &out); !errors.Is(err, errRegression) {
		t.Fatalf("allocs regression across CPU counts err = %v, want errRegression\n%s", err, out.String())
	}
	if got := out.String(); !strings.Contains(got, "warn: BenchmarkFactorialDecode-2:") || strings.Contains(got, "not in") {
		t.Errorf("diff output:\n%s", got)
	}
}

func TestRunDiffBadBaseline(t *testing.T) {
	if err := runDiff("/nonexistent/base.json", 0, strings.NewReader(""), &bytes.Buffer{}); err == nil {
		t.Fatal("missing baseline accepted")
	}
	basePath := t.TempDir() + "/base.json"
	if err := writeFile(basePath, "not json"); err != nil {
		t.Fatal(err)
	}
	if err := runDiff(basePath, 0, strings.NewReader(""), &bytes.Buffer{}); err == nil {
		t.Fatal("malformed baseline accepted")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
