// Package fleet scales the single-home privacy experiments to a population:
// heterogeneous home archetypes spread over geography and season stream
// meter and network samples, one simulated day at a time, through sharded
// ingest running the attacks in their online form, turning leakage into a
// live per-home signal with per-capita distribution metrics.
//
// Three contracts shape the design (DESIGN.md §11):
//
//   - bit-reproducibility at any worker count: every random stream hangs off
//     the fleet seed via FNV-1a sub-seeding, per-home generators advance only
//     while processing their home, and the per-capita histograms are folded
//     from per-home counters after the last day;
//   - bounded memory: only the current day's chunks are alive, per-home
//     state is a fixed few hundred bytes, and nothing grows with the
//     simulated horizon;
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

// The stream geometry is fixed: the meter reports every step, the attacks
// decide once per Window of samples, and the online NIOM detector keeps
// history trailing windows.
const (
	step = 15 * time.Minute
	// Window is the attack analysis window: one verdict per home per Window.
	Window  = time.Hour
	history = 8

	samplesPerWindow = int(Window / step)
	windowsPerDay    = int(24 * time.Hour / Window)
)

// ErrBadSpec indicates an invalid fleet specification.
var ErrBadSpec = errors.New("fleet: invalid spec")

// Bounds on spec fields. Validate rejects anything outside them before any
// allocation proportional to the value, and ParseMix bounds the part count
// before any per-part work, so a hostile mix string cannot OOM the parser
// (the fuzz target's core property).
const (
	MaxHomes    = 50_000_000
	MaxWorkers  = 256
	MaxDays     = 3650
	MaxVariants = 64
	MaxMixParts = 64
	// MaxMixWeight keeps homes × weight and the sum of the weights finite
	// in assignCounts; past it they overflow and the counts go negative.
	MaxMixWeight = 1e9
)

// Share is one archetype's weight in the population mix.
type Share struct {
	// Archetype names a builtin archetype (see Archetypes).
	Archetype string
	// Weight is the archetype's relative share, in (0, MaxMixWeight].
	Weight float64
}

// Spec parameterizes a fleet run.
type Spec struct {
	// Homes is the population size.
	Homes int
	// Workers is the ingest shard count. Results are bit-identical at any
	// value; it only sets the parallelism.
	Workers int
	// Days is the simulated horizon.
	Days int
	// Seed drives every random stream via sub-seeding. Zero is a seed like
	// any other; DefaultSpec starts from 42.
	Seed int64
	// Variants is the number of simulated variants per archetype that homes
	// share (default 4). More variants, more population diversity, more
	// generator work.
	Variants int
	// Mix is the archetype mix; empty means an equal mix of all builtins.
	Mix []Share
}

// DefaultSpec returns a small, quick fleet.
func DefaultSpec() Spec {
	return Spec{
		Homes:    1000,
		Workers:  4,
		Days:     2,
		Seed:     42,
		Variants: 4,
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
	if s.Variants == 0 {
		s.Variants = d.Variants
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
	case s.Variants < 1 || s.Variants > MaxVariants:
		return fmt.Errorf("%w: variants %d (1..%d)", ErrBadSpec, s.Variants, MaxVariants)
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
		if !(m.Weight > 0 && m.Weight <= MaxMixWeight) {
			return fmt.Errorf("%w: mix weight %v for %q (want (0, %g])",
				ErrBadSpec, m.Weight, m.Archetype, float64(MaxMixWeight))
		}
	}
	return nil
}

// ParseMix parses an archetype mix, "name:weight,name:weight", and validates
// it as a Spec's Mix: known names, no duplicates, weights in
// (0, MaxMixWeight].
// The part count is bounded before any per-part work.
func ParseMix(val string) ([]Share, error) {
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
	spec := DefaultSpec()
	spec.Mix = mix
	if err := spec.Validate(); err != nil {
		return nil, err
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
