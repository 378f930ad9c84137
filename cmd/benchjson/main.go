// Command benchjson converts `go test -bench` text output on stdin into a
// JSON array on stdout, one object per benchmark result line:
//
//	go test -bench BenchmarkReportCache -run '^$' ./internal/serve | benchjson > BENCH_serve.json
//
// Each object carries the benchmark name (with the -N GOMAXPROCS suffix),
// iteration count, ns/op, and — when the benchmark reports them — B/op,
// allocs/op, and every custom b.ReportMetric column keyed by its unit.
// Non-benchmark lines (the goos/pkg preamble, PASS, ok) are ignored, so raw
// `go test` output pipes straight through.
//
// With -diff FILE, stdin is instead compared against the baseline JSON in
// FILE: per-benchmark ns/op and allocs/op ratios are printed, plus warnings
// for large regressions and for benchmarks that appear on only one side.
// Rows match by name with the -N suffix ignored, so a snapshot taken at
// another CPU count still compares.
// Diff mode is advisory by default — it exits 0 unless the input cannot be
// parsed — so it can gate nothing while still surfacing trajectory drift in
// CI logs. With -fail-pct P (> 0), a ns/op regression beyond P percent or an
// allocs/op regression beyond the allocation guard turns the run into a
// failure: every comparison line still prints, then the exit code is 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *int64             `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64             `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// regressionWarnFactor is the ns/op growth beyond which diff mode flags a
// benchmark. Generous on purpose: quick-scale timings are noisy and the
// default mode is warn-only.
const regressionWarnFactor = 1.25

// allocsWarnFactor is the allocs/op growth beyond which diff mode flags a
// benchmark. Tighter than the timing factor: allocation counts are nearly
// deterministic (pool warm-up aside), so a 10% jump is a real change.
const allocsWarnFactor = 1.10

// errRegression reports that -fail-pct was set and at least one benchmark
// regressed past the threshold. The comparison lines have already printed.
var errRegression = errors.New("benchmarks regressed past -fail-pct threshold")

func main() {
	diffBase := flag.String("diff", "",
		"baseline JSON file; compare stdin's bench output against it instead of emitting JSON")
	failPct := flag.Float64("fail-pct", 0,
		"with -diff: exit nonzero when ns/op regresses more than this percent (0 = warn-only)")
	flag.Parse()
	var err error
	if *diffBase != "" {
		err = runDiff(*diffBase, *failPct, os.Stdin, os.Stdout)
	} else {
		err = run(os.Stdin, os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

func run(in io.Reader, out io.Writer) error {
	results, err := Parse(in)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

// runDiff compares fresh bench output (text, on in) against a baseline JSON
// snapshot. Output is one line per benchmark (ns/op always; allocs/op when
// both sides report it); regressions and one-sided benchmarks are prefixed
// "warn:". With failPct > 0, timing regressions beyond failPct percent and
// allocation regressions beyond allocsWarnFactor return errRegression after
// all lines have printed.
func runDiff(basePath string, failPct float64, in io.Reader, out io.Writer) error {
	raw, err := os.ReadFile(basePath)
	if err != nil {
		return err
	}
	var base []Result
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", basePath, err)
	}
	fresh, err := Parse(in)
	if err != nil {
		return err
	}

	nsFailFactor := regressionWarnFactor
	if failPct > 0 {
		nsFailFactor = 1 + failPct/100
	}
	failed := false

	baseByName := map[string]Result{}
	for _, r := range base {
		baseByName[benchKey(r.Name)] = r
	}
	seen := map[string]bool{}
	for _, r := range fresh {
		seen[benchKey(r.Name)] = true
		old, ok := baseByName[benchKey(r.Name)]
		if !ok {
			if _, err := fmt.Fprintf(out, "warn: %s: not in baseline %s\n", r.Name, basePath); err != nil {
				return err
			}
			continue
		}
		if old.NsPerOp <= 0 || r.NsPerOp <= 0 {
			continue
		}
		ratio := r.NsPerOp / old.NsPerOp
		prefix := "  ok:"
		if ratio > nsFailFactor {
			prefix = "warn:"
			failed = failPct > 0
		} else if ratio > regressionWarnFactor {
			prefix = "warn:"
		}
		allocNote := ""
		if old.AllocsPerOp != nil && r.AllocsPerOp != nil && *old.AllocsPerOp > 0 {
			aRatio := float64(*r.AllocsPerOp) / float64(*old.AllocsPerOp)
			allocNote = fmt.Sprintf(", %d allocs/op vs %d (%.2fx)",
				*r.AllocsPerOp, *old.AllocsPerOp, aRatio)
			if aRatio > allocsWarnFactor {
				prefix = "warn:"
				if failPct > 0 {
					failed = true
				}
			}
		}
		if _, err := fmt.Fprintf(out, "%s %s: %.4g ns/op vs baseline %.4g (%.2fx)%s\n",
			prefix, r.Name, r.NsPerOp, old.NsPerOp, ratio, allocNote); err != nil {
			return err
		}
	}
	missing := []string{}
	for key, r := range baseByName {
		if !seen[key] {
			missing = append(missing, r.Name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		if _, err := fmt.Fprintf(out, "warn: %s: in baseline but not in this run\n", name); err != nil {
			return err
		}
	}
	if failed {
		return errRegression
	}
	return nil
}

// benchKey is a benchmark's name without its trailing -N GOMAXPROCS
// suffix, so a snapshot taken at another CPU count still matches row by
// row.
func benchKey(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}
