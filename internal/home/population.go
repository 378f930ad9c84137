package home

import (
	"fmt"
	"math/rand"
	"time"

	"privmem/internal/loads"
	"privmem/internal/par"
)

// RandomConfig derives a diverse home configuration from a base seed and a
// home index: occupant counts, schedules, activity levels, and device mixes
// all vary, producing the spread of occupancy-detection difficulty the paper
// reports (70-90% NIOM accuracy across homes).
func RandomConfig(baseSeed int64, index int) Config {
	rng := rand.New(rand.NewSource(baseSeed + int64(index)*7919))
	cfg := DefaultConfig(baseSeed + int64(index)*104729)
	cfg.Occupants = 1 + rng.Intn(4)
	cfg.WakeHour = 5.5 + 2*rng.Float64()
	cfg.SleepHour = 21.5 + 2*rng.Float64()
	cfg.LeaveHour = 7.5 + 2*rng.Float64()
	cfg.ReturnHour = 16 + 3*rng.Float64()
	cfg.ScheduleJitterH = 0.25 + 0.75*rng.Float64()
	cfg.EmploymentProb = 0.5 + 0.5*rng.Float64()
	cfg.WeekendErrandProb = 0.3 + 0.6*rng.Float64()
	cfg.ActivityRatePerHour = 0.6 + 2.2*rng.Float64()

	// Vary the background mix: every home has a fridge and standby load;
	// the rest are optional, which varies the "noise floor" NIOM must
	// distinguish activity from.
	cfg.BackgroundDevices = []string{loads.NameFridge, loads.NameStandby}
	for _, opt := range []string{
		loads.NameFreezer, loads.NameHRV, loads.NameFurnaceFan, loads.NameDehumidifier,
	} {
		if rng.Float64() < 0.6 {
			cfg.BackgroundDevices = append(cfg.BackgroundDevices, opt)
		}
	}
	cfg.LaundryDays = []time.Weekday{
		time.Weekday(rng.Intn(7)),
	}
	if rng.Float64() < 0.5 {
		cfg.LaundryDays = append(cfg.LaundryDays, time.Weekday(rng.Intn(7)))
	}
	return cfg
}

// Population simulates n diverse homes sharing a base seed, all starting at
// the same instant and running for the same number of days. Each home is
// seeded only by RandomConfig(baseSeed, i), so the homes simulate
// concurrently into indexed slots and the result is the same at any
// GOMAXPROCS.
func Population(baseSeed int64, n, days int) ([]*Trace, error) {
	traces := make([]*Trace, n)
	err := par.For(n, func(i int) error {
		cfg := RandomConfig(baseSeed, i)
		cfg.Days = days
		tr, err := Simulate(cfg)
		if err != nil {
			return fmt.Errorf("population home %d: %w", i, err)
		}
		traces[i] = tr
		return nil
	})
	if err != nil {
		return nil, err
	}
	return traces, nil
}
