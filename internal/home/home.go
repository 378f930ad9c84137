// Package home simulates a household's electricity usage with ground truth:
// per-appliance power traces, aggregate power, binary occupancy, hot-water
// draws, and an appliance-event diary.
//
// The simulator reproduces the statistical structure the paper's attacks
// exploit: occupants follow daily leave/return schedules; while home and
// awake they trigger interactive appliances (which makes usage higher and
// burstier — the NIOM signal); background appliances duty-cycle regardless
// of occupancy (the confounder NIOM must filter out); and every appliance is
// built from the archetype models of package loads (the NILM signal).
package home

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"privmem/internal/loads"
	"privmem/internal/meter"
	"privmem/internal/timeseries"
)

// ErrBadConfig indicates an invalid simulation configuration.
var ErrBadConfig = errors.New("home: invalid config")

// Config parameterizes one simulated home.
type Config struct {
	// Seed drives all randomness for this home.
	Seed int64
	// Start is the first simulated instant (typically local midnight).
	Start time.Time
	// Days is the number of simulated days.
	Days int
	// Step is the simulation and ground-truth resolution (default 1 minute).
	Step time.Duration
	// Occupants is the number of residents (default 2).
	Occupants int

	// WakeHour and SleepHour bound the awake period (local hours, decimal).
	WakeHour, SleepHour float64
	// LeaveHour and ReturnHour are the weekday work-schedule anchors.
	LeaveHour, ReturnHour float64
	// ScheduleJitterH is the standard deviation (hours) applied to all
	// schedule anchors each day.
	ScheduleJitterH float64
	// EmploymentProb is the probability an occupant leaves for work on a
	// weekday.
	EmploymentProb float64
	// WeekendErrandProb is the probability an occupant runs a 1-3 h errand
	// on a weekend day.
	WeekendErrandProb float64

	// ActivityRatePerHour is the expected number of interactive appliance
	// events per awake-occupied hour.
	ActivityRatePerHour float64
	// LaundryDays are the weekdays on which laundry (washer then dryer) runs.
	LaundryDays []time.Weekday

	// VacationDays lists simulation-day indexes (0-based) on which every
	// occupant is away for the entire day — the extended absences the
	// paper notes occupancy patterns reveal.
	VacationDays []int

	// BackgroundDevices duty-cycle regardless of occupancy.
	BackgroundDevices []string
	// InteractiveDevices are triggered by occupant activity.
	InteractiveDevices []string
	// IncludeWaterHeater adds a naive thermostat-driven electric water
	// heater responding to hot-water draws.
	IncludeWaterHeater bool
}

// DefaultConfig returns a representative two-occupant home.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:                seed,
		Start:               time.Date(2017, 6, 5, 0, 0, 0, 0, time.UTC), // a Monday
		Days:                7,
		Step:                time.Minute,
		Occupants:           2,
		WakeHour:            6.5,
		SleepHour:           23,
		LeaveHour:           8.5,
		ReturnHour:          17.5,
		ScheduleJitterH:     0.5,
		EmploymentProb:      0.9,
		WeekendErrandProb:   0.6,
		ActivityRatePerHour: 1.6,
		LaundryDays:         []time.Weekday{time.Saturday, time.Wednesday},
		BackgroundDevices: []string{
			loads.NameFridge, loads.NameFreezer, loads.NameHRV,
			loads.NameFurnaceFan, loads.NameStandby,
		},
		InteractiveDevices: []string{
			loads.NameToaster, loads.NameKettle, loads.NameMicrowave,
			loads.NameOven, loads.NameTV, loads.NameLighting,
			loads.NameDishwasher,
		},
		IncludeWaterHeater: true,
	}
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Step == 0 {
		out.Step = time.Minute
	}
	if out.Occupants == 0 {
		out.Occupants = 2
	}
	return out
}

func (c *Config) validate() error {
	switch {
	case c.Days <= 0:
		return fmt.Errorf("%w: days=%d", ErrBadConfig, c.Days)
	case c.Step <= 0 || time.Hour%c.Step != 0:
		return fmt.Errorf("%w: step %v must divide an hour", ErrBadConfig, c.Step)
	case c.WakeHour < 0 || c.SleepHour > 24 || c.WakeHour >= c.SleepHour:
		return fmt.Errorf("%w: wake %.1f / sleep %.1f", ErrBadConfig, c.WakeHour, c.SleepHour)
	case c.ActivityRatePerHour < 0:
		return fmt.Errorf("%w: activity rate %.2f", ErrBadConfig, c.ActivityRatePerHour)
	}
	return nil
}

// Event is one appliance activation in the ground-truth diary.
type Event struct {
	// Device is the appliance name.
	Device string
	// Start is when the appliance turned on.
	Start time.Time
	// Duration is how long it ran.
	Duration time.Duration
}

// WaterDraw is one hot-water usage event (shower, dishes, laundry).
type WaterDraw struct {
	// Time is when the draw occurs.
	Time time.Time
	// Liters is the volume of hot water drawn.
	Liters float64
}

// Trace is the full ground-truth output of a simulation.
type Trace struct {
	// Aggregate is total home power in watts at Config.Step resolution.
	Aggregate *timeseries.Series
	// Occupancy is the binary ground truth (1 when at least one occupant is
	// present, whether awake or asleep).
	Occupancy *timeseries.Series
	// Active is 1 when at least one occupant is present and awake.
	Active *timeseries.Series
	// Appliances maps device name to its ground-truth power trace.
	Appliances map[string]*timeseries.Series
	// Events is the appliance diary, sorted by start time.
	Events []Event
	// WaterDraws are the hot-water usage events, sorted by time.
	WaterDraws []WaterDraw
}

// SimulateMetered simulates the home described by cfg and reads its
// aggregate through a default smart meter (meter.DefaultConfig(meterSeed))
// reporting at the trace's own step: a home behind its meter.
func SimulateMetered(cfg Config, meterSeed int64) (*Trace, *timeseries.Series, error) {
	tr, err := Simulate(cfg)
	if err != nil {
		return nil, nil, err
	}
	mc := meter.DefaultConfig(meterSeed)
	mc.Interval = tr.Aggregate.Step
	m, err := meter.Read(mc, tr.Aggregate)
	if err != nil {
		return nil, nil, err
	}
	return tr, m, nil
}

// Simulate runs the household simulation described by cfg.
func Simulate(cfg Config) (*Trace, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("simulate home: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	catalog := loads.Catalog()
	n := cfg.Days * int(24*time.Hour/cfg.Step)
	end := cfg.Start.Add(time.Duration(cfg.Days) * 24 * time.Hour)

	tr := &Trace{
		Aggregate:  timeseries.MustNew(cfg.Start, cfg.Step, n),
		Occupancy:  timeseries.MustNew(cfg.Start, cfg.Step, n),
		Active:     timeseries.MustNew(cfg.Start, cfg.Step, n),
		Appliances: make(map[string]*timeseries.Series),
	}

	occ := newOccupantModel(cfg, rng)
	occ.fill(tr.Occupancy, tr.Active)

	// Background loads: duty-cycled or always-on, independent of occupancy.
	for _, name := range cfg.BackgroundDevices {
		model, ok := catalog[name]
		if !ok {
			return nil, fmt.Errorf("simulate home: unknown background device %q", name)
		}
		dev := timeseries.MustNew(cfg.Start, cfg.Step, n)
		if model.OffDuration > 0 {
			acts, err := model.CycleSchedule(rng, cfg.Start, end)
			if err != nil {
				return nil, fmt.Errorf("simulate home: %w", err)
			}
			for _, a := range acts {
				renderActivation(rng, dev, model, a)
			}
		} else {
			// Always-on (e.g. standby).
			for i := 0; i < n; i++ {
				dev.Values[i] = model.SamplePower(rng, time.Duration(i)*cfg.Step)
			}
		}
		tr.Appliances[name] = dev
	}

	// Interactive loads: events generated while occupants are active.
	sched := newActivityScheduler(cfg, rng, catalog)
	events, err := sched.generate(tr.Active)
	if err != nil {
		return nil, fmt.Errorf("simulate home: %w", err)
	}
	for _, ev := range events {
		model := catalog[ev.Device]
		dev, ok := tr.Appliances[ev.Device]
		if !ok {
			dev = timeseries.MustNew(cfg.Start, cfg.Step, n)
			tr.Appliances[ev.Device] = dev
		}
		renderActivation(rng, dev, model, loads.Activation{Start: ev.Start, Duration: ev.Duration})
	}
	tr.Events = events

	// Hot water: draws tied to occupant routines; optional naive heater.
	tr.WaterDraws = generateWaterDraws(cfg, rng, occ)
	if cfg.IncludeWaterHeater {
		heater := naiveHeaterTrace(cfg, rng, catalog[loads.NameWaterHeater], tr.WaterDraws, n)
		tr.Appliances[loads.NameWaterHeater] = heater
	}

	// Aggregate in sorted device order: float addition is order-dependent,
	// and map iteration order would make same-seed runs differ in the last
	// bits.
	names := make([]string, 0, len(tr.Appliances))
	for name := range tr.Appliances {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := tr.Aggregate.AddInPlace(tr.Appliances[name]); err != nil {
			return nil, fmt.Errorf("simulate home: aggregate: %w", err)
		}
	}

	sort.Slice(tr.Events, func(i, j int) bool { return tr.Events[i].Start.Before(tr.Events[j].Start) })
	sort.Slice(tr.WaterDraws, func(i, j int) bool { return tr.WaterDraws[i].Time.Before(tr.WaterDraws[j].Time) })
	return tr, nil
}

// renderActivation adds one activation of model onto the device trace.
func renderActivation(rng *rand.Rand, dev *timeseries.Series, model loads.Model, a loads.Activation) {
	start := dev.IndexOf(a.Start)
	steps := int(a.Duration / dev.Step)
	if steps < 1 {
		steps = 1
	}
	for j := 0; j < steps; j++ {
		i := start + j
		if i < 0 || i >= dev.Len() {
			continue
		}
		dev.Values[i] += model.SamplePower(rng, time.Duration(j)*dev.Step)
	}
}

// naiveHeaterTrace models a conventional thermostat water heater: after each
// draw, the element runs long enough to reheat the drawn volume.
func naiveHeaterTrace(cfg Config, rng *rand.Rand, model loads.Model, draws []WaterDraw, n int) *timeseries.Series {
	dev := timeseries.MustNew(cfg.Start, cfg.Step, n)
	// Energy to reheat one liter by ~42 K: 4186 J/kg-K * 42 K / 3600 -> ~49 Wh/L.
	const whPerLiter = 49.0
	for _, d := range draws {
		minutes := d.Liters * whPerLiter / model.OnPower * 60
		steps := int(minutes*60/cfg.Step.Seconds() + 0.5)
		if steps < 1 {
			steps = 1
		}
		// Thermostat reacts within a few minutes of the draw.
		delay := time.Duration(rng.Intn(4)) * time.Minute
		start := dev.IndexOf(d.Time.Add(delay))
		for j := 0; j < steps; j++ {
			i := start + j
			if i < 0 || i >= n {
				continue
			}
			dev.Values[i] += model.SamplePower(rng, time.Duration(j)*cfg.Step)
		}
	}
	return dev
}
