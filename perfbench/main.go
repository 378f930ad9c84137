// Command perfbench is privmem's benchmark: two workloads, a cold pass of
// the experiment suite and a hot memoird, each checked against stored
// output digests, and a traced run that also covers the fleet stream. See
// README.md in this directory.
//
//	perfbench --workload suite-cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 runs the separate traced pass and reports
// the per-layer metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

//go:embed digests.json
var digestsJSON []byte

// digestTable holds the expected output digests: per program seed, each
// paper artifact's rendered report, and per fleet spec, the rendered
// fleet summary.
type digestTable struct {
	Reports map[string]map[string]string `json:"reports"`
	Fleet   map[string]string            `json:"fleet"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(runChild(os.Args[2:], os.Stdin, os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	exe      string
	digests  digestTable
	traceDir string
}

// run is the benchmark's entry point. Exit codes: 0 with a result line,
// 1 when the benchmark could not run, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cfg   config
		trace int
		regen bool
	)
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&cfg.seed, "seed", 0, "benchmark seed; picks the inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measuring time per run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	fs.BoolVar(&cfg.tiny, "tiny", false, "shrink every workload (smoke test)")
	fs.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/perfbench-trace", "where the traced run writes its spans")
	fs.BoolVar(&regen, "regen", false, "print a fresh digests.json for the pinned seeds and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if regen {
		if err := regenDigests(stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: regen: %v\n", err)
			return 1
		}
		return 0
	}
	if cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	p, err := makePlan(cfg.workload, cfg.seed, cfg.tiny)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if err := json.Unmarshal(digestsJSON, &cfg.digests); err != nil {
		fmt.Fprintf(stderr, "perfbench: digests.json: %v\n", err)
		return 1
	}
	if cfg.exe, err = os.Executable(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	var out result
	if cfg.trace {
		out, err = traced(cfg, p, stdout)
	} else {
		out, err = timed(cfg, p)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, e := range out.errors {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", e)
	}
	out.print(stdout)
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's checks and metrics.
type result struct {
	attempted, failed int
	errors            []string
	metrics           map[string]metric
}

// add folds a child's checks into the result.
func (r *result) add(c childResult) {
	r.attempted += c.Attempted
	r.failed += c.Failed
	r.errors = append(r.errors, c.Errors...)
}

// check compares a child's output digests against the stored table. A
// missing or different digest is a failed operation.
func (r *result) check(cfg config, c childResult) {
	for _, d := range c.Reports {
		if want := cfg.digests.Reports[fmt.Sprint(d.Seed)][d.ID]; d.Digest != want {
			r.failed++
			r.errors = append(r.errors, fmt.Sprintf("report %s seed %d: digest %.12s, want %.12s", d.ID, d.Seed, d.Digest, want))
		}
	}
	for key, got := range c.Fleet {
		if want := cfg.digests.Fleet[key]; got != want {
			r.failed++
			r.errors = append(r.errors, fmt.Sprintf("fleet %s: digest %.12s, want %.12s", key, got, want))
		}
	}
}

// print writes the human summary and then the result line.
func (r *result) print(w io.Writer) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-32s %14.6g %s\n", "error_share", share, "ratio")
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %14.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, max(r.attempted, 1), r.failed, r.metrics})
	fmt.Fprintln(w, string(line))
}

// timed runs the workload's operations, untraced, for --seconds, and
// reports the end-to-end metrics as medians over operations. Successive
// suite passes take their seeds from p.passSeeds. A suite run starts no
// pass that the longest one so far says would end after --seconds (but
// runs at least one), so it lasts --seconds rather than up to one pass
// more. A serving run is serveChildren children.
func timed(cfg config, p plan) (result, error) {
	var out result
	tr := newTracer(false)
	var ops []childResult
	var longest time.Duration
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for {
		q := p
		q.suite.Seed = p.passSeeds[len(ops)%len(p.passSeeds)]
		t0 := time.Now()
		c, err := op(cfg, q, p.kind, false, tr, cfg.seconds)
		if err != nil {
			return out, err
		}
		longest = max(longest, time.Since(t0))
		out.add(c)
		out.check(cfg, c)
		ops = append(ops, c)
		if p.kind == "serve" && len(ops) == serveChildren ||
			p.kind == "suite" && time.Since(start)+longest > budget {
			break
		}
	}
	out.metrics = endToEnd(p, ops)
	return out, nil
}

// serveChildren is how many serving children share one run's measuring
// time, each with its own set-up, so set-up and every metric is a median
// over independent processes.
const serveChildren = 3

// op runs one operation of the given kind in a child process. For the
// serving workload, one operation is a child running the closed loop for
// its share of the measuring time.
func op(cfg config, p plan, kind string, traced bool, tr *tracer, seconds float64) (childResult, error) {
	root, t0 := tr.begin("op."+kind, -1)
	defer tr.end(root, t0)
	var (
		c   childResult
		err error
	)
	switch kind {
	case "suite":
		c, err = spawn(cfg.exe, "suite", traced, p.suite, tr, root)
	case "serve":
		sp := p.serve
		sp.Seconds = seconds / serveChildren
		c, err = spawn(cfg.exe, "serve", traced, sp, tr, root)
	case "fleet":
		c, err = spawn(cfg.exe, "fleet", traced, p.fleet, tr, root)
	case "probes":
		c, err = spawn(cfg.exe, "probes", traced, p.suite.Seed, tr, root)
	}
	return c, err
}

// units is the work one operation completes: the paper artifacts of a
// suite pass, the requests a serving child made.
func units(p plan, c childResult) float64 {
	if p.kind == "serve" {
		return float64(c.Attempted)
	}
	return float64(len(p.suite.IDs))
}

// endToEnd computes the end-to-end metrics from a run's operations.
// Every metric but peak_rss_mb is the median over operations. For
// suite-cold an operation is one cold suite pass; for serving it is one
// child's closed loop, and latency is per request. peak_rss_mb is the
// highest peak of any operation: a pass's peak RSS is bimodal (about 205
// or 255 MB, depending on where garbage collections fall), so a median
// over ten passes flips between the two modes from run to run.
func endToEnd(p plan, ops []childResult) map[string]metric {
	col := func(f func(c childResult) float64) []float64 {
		v := make([]float64, len(ops))
		for i, c := range ops {
			v[i] = f(c)
		}
		return v
	}
	m := map[string]metric{
		"setup_s":          {median(col(func(c childResult) float64 { return c.Setup })), "s"},
		"throughput_per_s": {median(col(func(c childResult) float64 { return units(p, c) / c.Wall })), "1/s"},
		"cpu_us_per_req":   {median(col(func(c childResult) float64 { return c.CPU / units(p, c) * 1e6 })), "us"},
		"peak_rss_mb":      {slices.Max(col(func(c childResult) float64 { return c.RSSMB })), "MB"},
	}
	if p.kind == "serve" {
		m["latency_p50_ms"] = metric{median(col(func(c childResult) float64 { return c.P50 * 1e3 })), "ms"}
		m["latency_p99_ms"] = metric{median(col(func(c childResult) float64 { return c.P99 * 1e3 })), "ms"}
		m["wall_s"] = metric{m["latency_p50_ms"].Value / 1e3, "s"}
		m["cpu_s"] = metric{m["cpu_us_per_req"].Value / 1e6, "s"}
	} else {
		// A suite run completes about ten passes, too few for any tail
		// percentile to have ten samples beyond it, so both latency
		// metrics report the median pass; only serve-hot measures a tail.
		wall := median(col(func(c childResult) float64 { return c.Wall }))
		m["wall_s"] = metric{wall, "s"}
		m["cpu_s"] = metric{median(col(func(c childResult) float64 { return c.CPU })), "s"}
		m["latency_p50_ms"] = metric{wall * 1e3, "ms"}
		m["latency_p99_ms"] = metric{wall * 1e3, "ms"}
	}
	return m
}

// median of a non-empty sample.
func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// traced is the separate traced run. It runs the workload's operation
// once untraced and once traced (the difference is the tracing overhead),
// then covers every layer the workload does not exercise with the traced
// operation of the workload that does, and the per-call probes. Spans are
// written to cfg.traceDir when the run ends.
func traced(cfg config, p plan, stdout io.Writer) (result, error) {
	var out result
	tr := newTracer(true)
	layers := map[string]float64{}
	shortServe := min(cfg.seconds, 3.0)

	base, err := op(cfg, p, p.kind, false, newTracer(false), shortServe*serveChildren)
	if err != nil {
		return out, err
	}
	out.add(base)
	out.check(cfg, base)
	kinds := []string{p.kind}
	for _, k := range []string{"suite", "serve", "fleet", "probes"} {
		if k != p.kind {
			kinds = append(kinds, k)
		}
	}
	for _, kind := range kinds {
		c, err := op(cfg, p, kind, true, tr, shortServe*serveChildren)
		if err != nil {
			return out, err
		}
		out.add(c)
		out.check(cfg, c)
		for k, v := range c.Layers {
			if strings.HasPrefix(k, "runtime.") && kind != p.kind {
				continue
			}
			layers[k] = v
		}
		if kind == p.kind {
			traced, untraced := opWall(p, c), opWall(p, base)
			layers["trace.overhead_share"] = (traced - untraced) / untraced
			layers["trace.op_wall_ms"] = traced * 1e3
			layers["trace.untraced_op_wall_ms"] = untraced * 1e3
		}
		if kind == "suite" {
			layers["experiments.pass_wall_ms"] = c.Wall * 1e3
		}
		if kind == "fleet" {
			layers["fleet.wall_ms"] = c.Wall * 1e3
		}
	}
	accounting(stdout, layers)
	if err := writeSpans(cfg, tr.spans); err != nil {
		return out, err
	}
	out.metrics = map[string]metric{}
	for _, l := range perLayer {
		v, ok := layers[l.name]
		if !ok && cfg.tiny && skippedInTiny(l.name) {
			continue
		}
		if !ok {
			return out, fmt.Errorf("traced run produced no %s", l.name)
		}
		out.metrics[l.name] = metric{v, l.unit}
	}
	return out, nil
}

// opWall is the wall time of one operation in seconds: a suite pass, or
// for serving the median request.
func opWall(p plan, c childResult) float64 {
	if p.kind == "serve" {
		return c.P50
	}
	return c.Wall
}

// accounting prints how much of each path's wall time its layers explain.
func accounting(w io.Writer, layers map[string]float64) {
	pass := layers["experiments.pass_wall_ms"]
	un := layers["experiments.unattributed_ms"]
	verdict := "ok"
	if math.Abs(un) > 0.05*pass {
		verdict = "GAP"
	}
	fmt.Fprintf(w, "accounting suite: pass %.1f ms, experiments+render %.1f ms, unattributed %.1f ms (%.2f%%) %s\n",
		pass, pass-un, un, 100*un/pass, verdict)
	fw, g, wk := layers["fleet.wall_ms"], layers["fleet.gen_ms"], layers["fleet.worker_ms"]
	fmt.Fprintf(w, "accounting fleet: wall %.1f ms = gen %.1f ms + worker %.1f ms (worker is defined as the remainder)\n", fw, g, wk)
}

// writeSpans writes the traced run's spans as JSON.
func writeSpans(cfg config, spans []span) error {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
