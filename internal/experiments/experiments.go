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

// group is an experiment's place in the presentation order.
type group int

const (
	// paper marks the paper artifacts of the DESIGN.md index.
	paper group = iota
	// ablation marks the sensitivity analyses of the design choices behind
	// the headline results. They are not paper artifacts but document why
	// the implementations are configured as they are.
	ablation
	// armsRace marks the adaptive-adversary evaluation in which attackers
	// retrain through deployed defenses. It answers the question the
	// paper's static threat model leaves open ("I Still See You", Wang et
	// al.): how much protection survives an attacker that adapts?
	armsRace
	// fleetScale marks the population-scale studies. The paper evaluates
	// single homes; fl1 asks what its attacks look like as a live signal —
	// the per-capita distribution of online leakage across a heterogeneous
	// fleet.
	fleetScale
)

// table lists every experiment in presentation order: the paper
// artifacts, then the ablations, the arms race and the fleet studies.
var table = []struct {
	id    string
	group group
	run   Runner
}{
	{"f1", paper, Figure1HomeTraces},
	{"f2", paper, Figure2Disaggregation},
	{"f5", paper, Figure5Localization},
	{"f6", paper, Figure6CHPr},
	{"t1", paper, TableNIOMAccuracy},
	{"t2", paper, TableBehaviorInference},
	{"t3", paper, TableSunDance},
	{"t4", paper, TableBatteryDefense},
	{"t5", paper, TableDifferentialPrivacy},
	{"t6", paper, TableZKBilling},
	{"t7", paper, TableKnobFrontier},
	{"t8", paper, TableFingerprint},
	{"t9", paper, TableGateway},
	{"t10", paper, TableLocalIoT},
	{"t11", paper, TableFitnessLocation},
	{"t12", paper, TableStravaHeatmap},
	{"a1", ablation, AblationNIOMDetector},
	{"a2", ablation, AblationPowerPlay},
	{"a3", ablation, AblationFHMMOtherChain},
	{"a4", ablation, AblationSunSpotDataSpan},
	{"a5", ablation, AblationWeathermanResolution},
	{"a6", ablation, AblationShapingEnvelope},
	{"ar1", armsRace, ArmsRaceMatrix},
	{"fl1", fleetScale, FleetStreaming},
}

// Registry returns every experiment keyed by id.
func Registry() map[string]Runner {
	reg := make(map[string]Runner, len(table))
	for _, e := range table {
		reg[e.id] = e.run
	}
	return reg
}

// idsOf returns the ids of one group in presentation order.
func idsOf(g group) []string {
	var ids []string
	for _, e := range table {
		if e.group == g {
			ids = append(ids, e.id)
		}
	}
	return ids
}

// IDs returns the paper artifacts' ids in presentation order.
func IDs() []string { return idsOf(paper) }

// AblationIDs returns the ablation studies' ids.
func AblationIDs() []string { return idsOf(ablation) }

// ArmsRaceIDs returns the arms-race experiments' ids.
func ArmsRaceIDs() []string { return idsOf(armsRace) }

// FleetIDs returns the fleet-scale experiments' ids.
func FleetIDs() []string { return idsOf(fleetScale) }

// AllIDs returns every id in presentation order.
func AllIDs() []string {
	ids := make([]string, len(table))
	for i, e := range table {
		ids[i] = e.id
	}
	return ids
}

// lookup returns the runner registered under id.
func lookup(id string) (Runner, bool) {
	for _, e := range table {
		if e.id == id {
			return e.run, true
		}
	}
	return nil, false
}

// Run executes one experiment by id, containing generator panics as
// ErrPanic errors.
func Run(id string, opts Options) (*Report, error) {
	r, ok := lookup(id)
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
	r, ok := lookup(id)
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
