// Package fleet scales the single-home privacy experiments to a population:
// heterogeneous home archetypes spread over geography and season stream
// meter and network samples through sharded ingest workers running the
// attacks in their online form, turning leakage into a live per-home signal
// with per-capita distribution metrics.
//
// Three contracts shape the design (DESIGN.md §11):
//
//   - bit-reproducibility at any worker count: every random stream hangs off
//     the fleet seed via FNV-1a sub-seeding, per-home generators advance only
//     while processing their home, and all cross-worker aggregation is
//     commutative integer adds;
//   - bounded memory: per-day chunks flow through bounded channels with
//     backpressure, per-home state is a fixed few hundred bytes, and nothing
//     grows with the simulated horizon;
//   - sublinearity in homes: archetype/variant days are simulated once and
//     shared; per-home cost is the cheap online-attack path only.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ErrBadSpec indicates an invalid fleet specification.
var ErrBadSpec = errors.New("fleet: invalid spec")

// Bounds on spec fields. Parsing rejects anything outside them before any
// allocation proportional to the value, so a hostile spec string cannot OOM
// the parser (the fuzz target's core property).
const (
	MaxHomes    = 50_000_000
	MaxWorkers  = 256
	MaxDays     = 3650
	MaxHistory  = 4096
	MaxVariants = 64
	MaxBuffer   = 1024
	MaxMixParts = 64
)

// Share is one archetype's weight in the population mix.
type Share struct {
	// Archetype names a builtin archetype (see Archetypes).
	Archetype string
	// Weight is the archetype's relative share (> 0, finite).
	Weight float64
}

// Spec parameterizes a fleet run.
type Spec struct {
	// Homes is the population size.
	Homes int
	// Workers is the ingest worker count. Results are bit-identical at any
	// value; it only sets the parallelism.
	Workers int
	// Days is the simulated horizon.
	Days int
	// Seed drives every random stream via sub-seeding. Zero is a seed like
	// any other; DefaultSpec and ParseSpec start from 42.
	Seed int64
	// Step is the meter reporting interval (default 15m; must divide 1h).
	Step time.Duration
	// Window is the attack analysis window (default 1h; a multiple of Step).
	Window time.Duration
	// History is the trailing-window horizon of the online detectors
	// (default 8).
	History int
	// Variants is the number of simulated variants per archetype that homes
	// share (default 4). More variants, more population diversity, more
	// generator work.
	Variants int
	// Buffer is the per-worker chunk channel capacity (default 2) — the
	// backpressure knob bounding producer memory when ingest stalls.
	Buffer int
	// Mix is the archetype mix; empty means an equal mix of all builtins.
	Mix []Share

	// testHookChunk, when set, observes every chunk the generator finishes
	// (before it is handed to workers). Tests use it to prove backpressure
	// and memory bounds; the production path never sets it.
	testHookChunk func(day, archetype, variant int)
}

// DefaultSpec returns a small, quick fleet.
func DefaultSpec() Spec {
	return Spec{
		Homes:    1000,
		Workers:  4,
		Days:     2,
		Seed:     42,
		Step:     15 * time.Minute,
		Window:   time.Hour,
		History:  8,
		Variants: 4,
		Buffer:   2,
	}
}

// withDefaults fills zero fields from DefaultSpec. Seed is not among them:
// zero is a valid seed.
func (s Spec) withDefaults() Spec {
	d := DefaultSpec()
	if s.Homes == 0 {
		s.Homes = d.Homes
	}
	if s.Workers == 0 {
		s.Workers = d.Workers
	}
	if s.Days == 0 {
		s.Days = d.Days
	}
	if s.Step == 0 {
		s.Step = d.Step
	}
	if s.Window == 0 {
		s.Window = d.Window
	}
	if s.History == 0 {
		s.History = d.History
	}
	if s.Variants == 0 {
		s.Variants = d.Variants
	}
	if s.Buffer == 0 {
		s.Buffer = d.Buffer
	}
	return s
}

// Validate checks the spec against the documented bounds. It never
// allocates proportionally to any field value.
func (s Spec) Validate() error {
	switch {
	case s.Homes < 1 || s.Homes > MaxHomes:
		return fmt.Errorf("%w: homes %d (1..%d)", ErrBadSpec, s.Homes, MaxHomes)
	case s.Workers < 1 || s.Workers > MaxWorkers:
		return fmt.Errorf("%w: workers %d (1..%d)", ErrBadSpec, s.Workers, MaxWorkers)
	case s.Days < 1 || s.Days > MaxDays:
		return fmt.Errorf("%w: days %d (1..%d)", ErrBadSpec, s.Days, MaxDays)
	case s.Step <= 0 || time.Hour%s.Step != 0:
		return fmt.Errorf("%w: step %v must divide an hour", ErrBadSpec, s.Step)
	case s.Window <= 0 || s.Window%s.Step != 0 || s.Window > 24*time.Hour:
		return fmt.Errorf("%w: window %v must be a multiple of step %v within a day",
			ErrBadSpec, s.Window, s.Step)
	case 24*time.Hour%s.Window != 0:
		return fmt.Errorf("%w: window %v must divide a day", ErrBadSpec, s.Window)
	case s.History < 1 || s.History > MaxHistory:
		return fmt.Errorf("%w: history %d (1..%d)", ErrBadSpec, s.History, MaxHistory)
	case s.Variants < 1 || s.Variants > MaxVariants:
		return fmt.Errorf("%w: variants %d (1..%d)", ErrBadSpec, s.Variants, MaxVariants)
	case s.Buffer < 1 || s.Buffer > MaxBuffer:
		return fmt.Errorf("%w: buffer %d (1..%d)", ErrBadSpec, s.Buffer, MaxBuffer)
	case len(s.Mix) > MaxMixParts:
		return fmt.Errorf("%w: %d mix parts (max %d)", ErrBadSpec, len(s.Mix), MaxMixParts)
	}
	seen := map[string]bool{}
	for _, m := range s.Mix {
		if _, ok := archetypeByName(m.Archetype); !ok {
			return fmt.Errorf("%w: unknown archetype %q (have %s)",
				ErrBadSpec, m.Archetype, strings.Join(ArchetypeNames(), ", "))
		}
		if seen[m.Archetype] {
			return fmt.Errorf("%w: duplicate archetype %q in mix", ErrBadSpec, m.Archetype)
		}
		seen[m.Archetype] = true
		if math.IsNaN(m.Weight) || math.IsInf(m.Weight, 0) || m.Weight <= 0 {
			return fmt.Errorf("%w: mix weight %v for %q (want finite > 0)",
				ErrBadSpec, m.Weight, m.Archetype)
		}
	}
	return nil
}

// ParseSpec parses a fleet spec string of whitespace-separated key=value
// fields:
//
//	homes=1000 workers=4 days=2 seed=7 step=15m window=1h history=8
//	variants=4 buffer=2 mix=family:0.6,retired:0.4
//
// Unset keys take DefaultSpec values. The returned spec is validated.
func ParseSpec(s string) (Spec, error) {
	spec := DefaultSpec()
	for _, field := range strings.Fields(s) {
		key, val, ok := strings.Cut(field, "=")
		if !ok || val == "" {
			return Spec{}, fmt.Errorf("%w: field %q is not key=value", ErrBadSpec, field)
		}
		var err error
		switch key {
		case "homes":
			spec.Homes, err = parseBoundedInt(key, val, MaxHomes)
		case "workers":
			spec.Workers, err = parseBoundedInt(key, val, MaxWorkers)
		case "days":
			spec.Days, err = parseBoundedInt(key, val, MaxDays)
		case "seed":
			spec.Seed, err = strconv.ParseInt(val, 10, 64)
			if err != nil {
				err = fmt.Errorf("%w: seed %q", ErrBadSpec, val)
			}
		case "step":
			spec.Step, err = parseDur(key, val)
		case "window":
			spec.Window, err = parseDur(key, val)
		case "history":
			spec.History, err = parseBoundedInt(key, val, MaxHistory)
		case "variants":
			spec.Variants, err = parseBoundedInt(key, val, MaxVariants)
		case "buffer":
			spec.Buffer, err = parseBoundedInt(key, val, MaxBuffer)
		case "mix":
			spec.Mix, err = parseMix(val)
		default:
			err = fmt.Errorf("%w: unknown key %q", ErrBadSpec, key)
		}
		if err != nil {
			return Spec{}, err
		}
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// parseBoundedInt parses a positive int with an upper bound.
func parseBoundedInt(key, val string, bound int) (int, error) {
	n, err := strconv.Atoi(val)
	if err != nil || n < 1 || n > bound {
		return 0, fmt.Errorf("%w: %s %q (want 1..%d)", ErrBadSpec, key, val, bound)
	}
	return n, nil
}

// parseDur parses a positive duration.
func parseDur(key, val string) (time.Duration, error) {
	d, err := time.ParseDuration(val)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("%w: %s %q", ErrBadSpec, key, val)
	}
	return d, nil
}

// parseMix parses "name:weight,name:weight". Weights must be finite and
// positive; the part count is bounded before any per-part work.
func parseMix(val string) ([]Share, error) {
	parts := strings.Split(val, ",")
	if len(parts) > MaxMixParts {
		return nil, fmt.Errorf("%w: %d mix parts (max %d)", ErrBadSpec, len(parts), MaxMixParts)
	}
	mix := make([]Share, 0, len(parts))
	for _, part := range parts {
		name, w, ok := strings.Cut(part, ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("%w: mix part %q is not name:weight", ErrBadSpec, part)
		}
		weight, err := strconv.ParseFloat(w, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: mix weight %q", ErrBadSpec, w)
		}
		mix = append(mix, Share{Archetype: name, Weight: weight})
	}
	return mix, nil
}

// effectiveMix returns the spec's mix, defaulting to an equal split over all
// builtin archetypes in their canonical order.
func (s Spec) effectiveMix() []Share {
	if len(s.Mix) > 0 {
		return s.Mix
	}
	names := ArchetypeNames()
	mix := make([]Share, len(names))
	for i, n := range names {
		mix[i] = Share{Archetype: n, Weight: 1}
	}
	return mix
}

// assignCounts apportions homes to mix entries by largest remainder
// (Hamilton's method): exact floors first, leftover homes to the largest
// fractional parts, ties to the earlier mix entry. Deterministic and
// order-stable, so home -> archetype assignment is a pure function of the
// spec.
func assignCounts(homes int, mix []Share) []int {
	var total float64
	for _, m := range mix {
		total += m.Weight
	}
	counts := make([]int, len(mix))
	type frac struct {
		idx int
		rem float64
	}
	fracs := make([]frac, len(mix))
	assigned := 0
	for i, m := range mix {
		exact := float64(homes) * m.Weight / total
		counts[i] = int(math.Floor(exact))
		assigned += counts[i]
		fracs[i] = frac{idx: i, rem: exact - math.Floor(exact)}
	}
	sort.SliceStable(fracs, func(a, b int) bool { return fracs[a].rem > fracs[b].rem })
	for i := 0; i < homes-assigned; i++ {
		counts[fracs[i%len(fracs)].idx]++
	}
	return counts
}
