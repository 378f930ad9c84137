// Package experiments reproduces every figure and table of the paper's
// evaluation, one generator per artifact (see DESIGN.md §3 for the index).
// Each generator builds its workload from the repository's simulators, runs
// the relevant attacks and defenses, and reports the same rows/series the
// paper presents, plus headline metrics for programmatic comparison.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"privmem/internal/seeds"
)

// ErrUnknown indicates an unknown experiment id.
var ErrUnknown = errors.New("experiments: unknown experiment")

// ErrPanic indicates a generator panicked. Run, RunContext, and RunAll
// contain the panic and return it wrapped in ErrPanic, so one broken
// experiment fails its own report instead of tearing down a suite run or a
// serving daemon.
var ErrPanic = errors.New("experiments: generator panicked")

// safeRun invokes a runner with panic containment.
func safeRun(r Runner, opts Options) (rep *Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			rep, err = nil, fmt.Errorf("%w: %v", ErrPanic, p)
		}
	}()
	return r(opts)
}

// Options control an experiment run.
type Options struct {
	// Seed drives all randomness. For backward compatibility a zero Seed
	// with SeedSet false selects the default seed 42; set SeedSet to run
	// with a literal zero seed.
	Seed int64
	// SeedSet marks Seed as explicit, disabling the zero-means-42 default.
	// RunAll sets it on every derived per-experiment seed so a derivation
	// that lands on zero is honored rather than remapped.
	SeedSet bool
	// Quick shrinks workloads (fewer days/homes/sites) for benchmarks and
	// smoke tests; headline shapes still hold, with more variance.
	Quick bool
}

func (o Options) seed() int64 {
	if !o.SeedSet && o.Seed == 0 {
		return 42
	}
	return o.Seed
}

// ForExperiment returns a copy of o with the per-experiment seed for id:
// the FNV-1a hash of the effective base seed and the experiment id. The
// derivation is a pure function of (seed, id) — independent of worker
// count, scheduling, and completion order — so concurrent suite runs are
// bit-identical to sequential ones, while distinct experiments get
// decorrelated random streams. The derived Options set SeedSet, so a hash
// that lands on zero is used verbatim.
func (o Options) ForExperiment(id string) Options {
	o.Seed = seeds.SubSeed(o.seed(), id)
	o.SeedSet = true
	return o
}

// CacheKey returns the canonical cache key for running experiment id with
// these options. Two Options values that produce identical reports produce
// identical keys: the key is built from the *effective* seed (after the
// zero-means-42 default), so {Seed: 0} and {Seed: 42, SeedSet: true} — which
// run the same simulation — share a cache entry.
func (o Options) CacheKey(id string) string {
	return fmt.Sprintf("%s|seed=%d|quick=%t", id, o.seed(), o.Quick)
}

// Report is an experiment's result: a table plus headline metrics.
type Report struct {
	// ID is the experiment id ("f1", "t5", ...).
	ID string
	// Title describes the reproduced artifact.
	Title string
	// Headers and Rows form the result table.
	Headers []string
	Rows    [][]string
	// Metrics are headline scalars for programmatic checks.
	Metrics map[string]float64
	// Notes document expected shapes and substitutions.
	Notes []string
}

// Metric reads a headline metric by name.
func (r *Report) Metric(name string) (float64, error) {
	v, ok := r.Metrics[name]
	if !ok {
		return 0, fmt.Errorf("experiments: report %s has no metric %q", r.ID, name)
	}
	return v, nil
}

// Render formats the report as an aligned text table.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", strings.ToUpper(r.ID), r.Title)
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s", w, c)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Headers)
	for _, row := range r.Rows {
		writeRow(row)
	}
	if len(r.Metrics) > 0 {
		names := make([]string, 0, len(r.Metrics))
		for name := range r.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		b.WriteString("-- metrics --\n")
		for _, name := range names {
			fmt.Fprintf(&b, "%s = %.4f\n", name, r.Metrics[name])
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner generates one experiment.
type Runner func(Options) (*Report, error)

// Registry returns every experiment keyed by id: the paper artifacts of
// the DESIGN.md index plus the ablation studies (AblationIDs).
func Registry() map[string]Runner {
	reg := map[string]Runner{
		"f1":  Figure1HomeTraces,
		"f2":  Figure2Disaggregation,
		"f5":  Figure5Localization,
		"f6":  Figure6CHPr,
		"t1":  TableNIOMAccuracy,
		"t2":  TableBehaviorInference,
		"t3":  TableSunDance,
		"t4":  TableBatteryDefense,
		"t5":  TableDifferentialPrivacy,
		"t6":  TableZKBilling,
		"t7":  TableKnobFrontier,
		"t8":  TableFingerprint,
		"t9":  TableGateway,
		"t10": TableLocalIoT,
		"t11": TableFitnessLocation,
		"t12": TableStravaHeatmap,
	}
	for id, r := range ablationRegistry() {
		reg[id] = r
	}
	for id, r := range armsRaceRegistry() {
		reg[id] = r
	}
	for id, r := range fleetRegistry() {
		reg[id] = r
	}
	return reg
}

// IDs returns the experiment ids in presentation order.
func IDs() []string {
	return []string{"f1", "f2", "f5", "f6", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9", "t10", "t11", "t12"}
}

// AllIDs returns every registry id — the paper artifacts followed by the
// ablations, the arms-race studies, and the fleet-scale studies — in
// presentation order.
func AllIDs() []string {
	ids := append(IDs(), AblationIDs()...)
	ids = append(ids, ArmsRaceIDs()...)
	return append(ids, FleetIDs()...)
}

// Run executes one experiment by id, containing generator panics as
// ErrPanic errors.
func Run(id string, opts Options) (*Report, error) {
	r, ok := Registry()[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknown, id)
	}
	return safeRun(r, opts)
}

// RunContext executes one experiment by id, honoring ctx cancellation and
// deadlines. Generators are CPU-bound and not internally preemptible, so on
// early cancellation the generation goroutine finishes in the background and
// its result is discarded; the call itself returns ctx.Err() promptly.
// An unknown id is reported before any work starts.
func RunContext(ctx context.Context, id string, opts Options) (*Report, error) {
	r, ok := Registry()[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknown, id)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	type result struct {
		rep *Report
		err error
	}
	ch := make(chan result, 1)
	go func() {
		// safeRun matters doubly here: an uncontained panic in this
		// goroutine could not even be recovered by the caller.
		rep, err := safeRun(r, opts)
		ch <- result{rep, err}
	}()
	select {
	case res := <-ch:
		return res.rep, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// f formats a float compactly for table cells.
func f(v float64) string { return fmt.Sprintf("%.3f", v) }

// f1dp formats with one decimal.
func f1dp(v float64) string { return fmt.Sprintf("%.1f", v) }
