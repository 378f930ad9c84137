package home

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
	_ "time/tzdata" // the DST cases need America/New_York on any host

	"privmem/internal/timeseries"
)

// referenceFill is the per-step occupancy fill: every step asks every
// occupant's whole absence list whether they are away, then reads the
// awake window through Hour, Minute and Second. It is the oracle the
// linear-time fill must match exactly.
func referenceFill(m *occupantModel, occupancy, active *timeseries.Series) {
	awake := func(t time.Time) bool {
		d := int(t.Sub(m.cfg.Start) / (24 * time.Hour))
		if d < 0 || d >= m.cfg.Days {
			return false
		}
		h := float64(t.Hour()) + float64(t.Minute())/60 + float64(t.Second())/3600
		return h >= m.wake[d] && h < m.sleep[d]
	}
	for i := 0; i < occupancy.Len(); i++ {
		t := occupancy.TimeAt(i)
		if m.anyoneHome(t) {
			occupancy.Values[i] = 1
			if awake(t) {
				active.Values[i] = 1
			}
		}
	}
}

// checkFillMatchesReference runs fill and referenceFill over the model's
// step grid and requires identical occupancy and active series.
func checkFillMatchesReference(t *testing.T, name string, m *occupantModel) {
	t.Helper()
	n := m.cfg.Days * int(24*time.Hour/m.cfg.Step)
	newSeries := func() *timeseries.Series { return timeseries.MustNew(m.cfg.Start, m.cfg.Step, n) }
	occ, act := newSeries(), newSeries()
	wantOcc, wantAct := newSeries(), newSeries()
	m.fill(occ, act)
	referenceFill(m, wantOcc, wantAct)
	for i := 0; i < n; i++ {
		if occ.Values[i] != wantOcc.Values[i] || act.Values[i] != wantAct.Values[i] {
			t.Fatalf("%s: step %d (%v): occupancy %v active %v, reference %v %v",
				name, i, occ.TimeAt(i), occ.Values[i], act.Values[i], wantOcc.Values[i], wantAct.Values[i])
		}
	}
}

func TestFillMatchesPerStepReference(t *testing.T) {
	ny, err := time.LoadLocation("America/New_York")
	if err != nil {
		t.Fatal(err)
	}
	starts := []time.Time{
		time.Date(2017, 6, 5, 0, 0, 0, 0, time.UTC),
		time.Date(2017, 3, 10, 0, 0, 0, 0, ny), // spring forward on Mar 12
		time.Date(2017, 11, 3, 0, 0, 0, 0, ny), // fall back on Nov 5
		time.Date(2017, 11, 4, 13, 7, 30, 0, ny),
	}
	steps := []time.Duration{10 * time.Second, time.Minute, 15 * time.Minute}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 48; trial++ {
		cfg := RandomConfig(int64(trial), trial)
		cfg.Occupants = 1 + trial%6
		cfg.Start = starts[trial%len(starts)]
		cfg.Step = steps[trial%len(steps)]
		cfg.Days = 1 + rng.Intn(8)
		for d := 0; d < cfg.Days; d++ {
			if rng.Float64() < 0.2 {
				cfg.VacationDays = append(cfg.VacationDays, d)
			}
		}
		if err := cfg.validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		m := newOccupantModel(cfg, rand.New(rand.NewSource(cfg.Seed)))
		checkFillMatchesReference(t, fmt.Sprintf("trial %d (%d occupants, %v step, %d days, start %v)",
			trial, cfg.Occupants, cfg.Step, cfg.Days, cfg.Start), m)
	}
}

func TestFillHandBuiltOverlappingAbsences(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.Days = 2
	cfg.Occupants = 3
	m := newOccupantModel(cfg, rand.New(rand.NewSource(cfg.Seed)))
	at := func(h float64) time.Time { return hourOffset(cfg.Start, h) }
	m.absences = [][]interval{
		// Unsorted, overlapping, nested, touching and off-grid intervals.
		{{at(30), at(34)}, {at(8.005), at(12)}, {at(10), at(11)}, {at(11.5), at(17.25)}, {at(17.25), at(18)}},
		// Reversed, empty, and out-of-range intervals.
		{{at(20), at(9)}, {at(14), at(14)}, {at(-5), at(13.3)}, {at(40), at(100)}, {at(11), at(16)}},
		// Partly covered by the others, so occupancy turns on a single step.
		{{at(9), at(12.01)}, {at(12.02), at(19)}, {at(31), at(33)}},
	}
	checkFillMatchesReference(t, "hand-built absences", m)
	occ := timeseries.MustNew(cfg.Start, cfg.Step, cfg.Days*24*60)
	m.fill(occ, timeseries.MustNew(cfg.Start, cfg.Step, occ.Len()))
	if occ.Mean() == 0 || occ.Mean() == 1 {
		t.Fatalf("hand-built absences should leave the home both empty and occupied, mean %v", occ.Mean())
	}
}
