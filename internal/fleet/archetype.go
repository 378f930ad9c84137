package fleet

import (
	"strconv"
	"time"

	"privmem/internal/home"
	"privmem/internal/nettrace"
	"privmem/internal/seeds"
	"privmem/internal/sun"
	"privmem/internal/timeseries"
	"privmem/internal/weather"
)

// fleetStart anchors every fleet simulation: a Monday in early January, so a
// multi-day horizon sweeps the deep-winter end of the seasonal envelope at
// northern archetypes while staying mild at southern ones.
var fleetStart = time.Date(2017, 1, 2, 0, 0, 0, 0, time.UTC)

// Archetype is one home template in the population: a household shape
// (occupants, schedule, activity), a geographic anchor (latitude drives day
// length via the sun model, and with it lighting/heating load; a weather
// field adds day-to-day cloud variation), and an IoT footprint for the
// network side.
type Archetype struct {
	// Name is the mix key.
	Name string
	// Lat, Lon anchor the archetype geographically.
	Lat, Lon float64
	// Occupants, schedule and activity shape the household.
	Occupants           int
	WakeHour, SleepHour float64
	LeaveHour           float64
	ReturnHour          float64
	EmploymentProb      float64
	ActivityRatePerHour float64
	// MeterNoiseW is the per-home meter noise standard deviation.
	MeterNoiseW float64
	// SeasonalGain scales load up as days shorten: the day's load factor is
	// 1 + SeasonalGain*(1 - dayLength/12h) + CloudGain*cloudCover.
	SeasonalGain float64
	// CloudGain scales load with cloud cover (lighting on gray days).
	CloudGain float64
	// ScaleJitter is the half-width of the per-home load scale spread
	// around 1.0 (a home's size/efficiency diversity).
	ScaleJitter float64
	// NetCounts is the archetype's IoT device census.
	NetCounts map[nettrace.Class]int
}

// archetypes returns the builtin population templates, in canonical order.
// The slice is rebuilt per call so callers can never corrupt the builtins.
func archetypes() []Archetype {
	return []Archetype{
		{
			Name: "family", Lat: 47.6, Lon: -122.3,
			Occupants: 4, WakeHour: 6.5, SleepHour: 23, LeaveHour: 8, ReturnHour: 16.5,
			EmploymentProb: 0.9, ActivityRatePerHour: 2.2,
			MeterNoiseW: 6, SeasonalGain: 0.30, CloudGain: 0.10, ScaleJitter: 0.20,
			NetCounts: map[nettrace.Class]int{
				nettrace.ClassCamera: 2, nettrace.ClassThermostat: 1,
				nettrace.ClassSmartPlug: 4, nettrace.ClassTV: 2,
				nettrace.ClassSpeaker: 3, nettrace.ClassHub: 1,
				nettrace.ClassBulb: 8, nettrace.ClassDoorbell: 1,
			},
		},
		{
			Name: "apartment", Lat: 40.7, Lon: -74.0,
			Occupants: 1, WakeHour: 7.5, SleepHour: 24, LeaveHour: 9, ReturnHour: 18.5,
			EmploymentProb: 0.95, ActivityRatePerHour: 1.1,
			MeterNoiseW: 4, SeasonalGain: 0.15, CloudGain: 0.06, ScaleJitter: 0.15,
			NetCounts: map[nettrace.Class]int{
				nettrace.ClassSmartPlug: 2, nettrace.ClassTV: 1,
				nettrace.ClassSpeaker: 1, nettrace.ClassBulb: 4,
			},
		},
		{
			Name: "retired", Lat: 33.4, Lon: -112.1,
			Occupants: 2, WakeHour: 6, SleepHour: 22, LeaveHour: 10, ReturnHour: 12,
			EmploymentProb: 0.05, ActivityRatePerHour: 1.6,
			MeterNoiseW: 5, SeasonalGain: 0.08, CloudGain: 0.04, ScaleJitter: 0.18,
			NetCounts: map[nettrace.Class]int{
				nettrace.ClassThermostat: 1, nettrace.ClassSmartPlug: 3,
				nettrace.ClassTV: 2, nettrace.ClassHub: 1,
				nettrace.ClassBulb: 5, nettrace.ClassLock: 1,
			},
		},
		{
			Name: "cottage", Lat: 60.2, Lon: 24.9,
			Occupants: 2, WakeHour: 7, SleepHour: 22.5, LeaveHour: 8.5, ReturnHour: 17,
			EmploymentProb: 0.7, ActivityRatePerHour: 1.4,
			MeterNoiseW: 8, SeasonalGain: 0.45, CloudGain: 0.12, ScaleJitter: 0.25,
			NetCounts: map[nettrace.Class]int{
				nettrace.ClassCamera: 3, nettrace.ClassThermostat: 2,
				nettrace.ClassSmartPlug: 3, nettrace.ClassHub: 1,
				nettrace.ClassBulb: 4, nettrace.ClassLock: 2,
				nettrace.ClassVacuum: 1,
			},
		},
	}
}

// ArchetypeNames returns the builtin archetype names in canonical order.
func ArchetypeNames() []string {
	as := archetypes()
	names := make([]string, len(as))
	for i, a := range as {
		names[i] = a.Name
	}
	return names
}

// archetypeByName looks up a builtin archetype.
func archetypeByName(name string) (Archetype, bool) {
	for _, a := range archetypes() {
		if a.Name == name {
			return a, true
		}
	}
	return Archetype{}, false
}

// dayFactor is the archetype's load multiplier for one day: seasonal (short
// days raise lighting/heating) and weather (cloud cover raises daytime
// lighting). cloud is the day's noon cloud cover at the archetype's anchor.
func (a Archetype) dayFactor(date time.Time, cloud float64) float64 {
	dayLen := 720.0 // minutes; equinox fallback for polar edge cases
	if dt, err := sun.RiseSet(date, a.Lat, a.Lon); err == nil {
		dayLen = dt.DayLengthMin()
	}
	short := 1 - dayLen/720
	return 1 + a.SeasonalGain*short + a.CloudGain*cloud
}

// cloudField builds the archetype's weather field for one day: 24 hourly
// steps around the anchor point. One small field per (archetype, day) keeps
// weather memory constant regardless of the horizon.
func (a Archetype) cloudField(seed int64, dayStart time.Time) (*weather.Field, error) {
	return weather.NewField(weather.FieldConfig{
		Seed:          seed,
		Modes:         3,
		CorrelationKm: 150,
		TimeStep:      time.Hour,
		Persistence:   0.85,
		MeanCloud:     0.5,
	}, dayStart, 24, a.Lat)
}

// homeConfig renders one (variant, day) of the archetype as a single-day
// home simulation. Variant diversity comes from a small deterministic jitter
// stream derived from the variant seed; day-to-day diversity comes from the
// home simulator's own seed edge per day.
func (a Archetype) homeConfig(variantSeed int64, day int) home.Config {
	var vr rng
	vr.s = uint64(variantSeed)
	cfg := home.DefaultConfig(seeds.SubSeed(variantSeed, "home-day"+strconv.Itoa(day)))
	cfg.Start = fleetStart.Add(time.Duration(day) * 24 * time.Hour)
	cfg.Days = 1
	cfg.Step = time.Minute
	cfg.Occupants = a.Occupants
	cfg.WakeHour = a.WakeHour + 0.8*(vr.float64v()-0.5)
	cfg.SleepHour = a.SleepHour + 0.8*(vr.float64v()-0.5)
	if cfg.SleepHour > 24 {
		cfg.SleepHour = 24
	}
	cfg.LeaveHour = a.LeaveHour + 0.8*(vr.float64v()-0.5)
	cfg.ReturnHour = a.ReturnHour + (vr.float64v() - 0.5)
	cfg.EmploymentProb = a.EmploymentProb
	cfg.ActivityRatePerHour = a.ActivityRatePerHour * (0.85 + 0.3*vr.float64v())
	return cfg
}

// netConfig renders one (variant, day) of the archetype's LAN, coupled to
// the home's activity series so network events track occupancy.
func (a Archetype) netConfig(variantSeed int64, day int, activity *timeseries.Series) nettrace.Config {
	return nettrace.Config{
		Seed:     seeds.SubSeed(variantSeed, "net-day"+strconv.Itoa(day)),
		Start:    fleetStart.Add(time.Duration(day) * 24 * time.Hour),
		Days:     1,
		Counts:   a.NetCounts,
		Activity: activity,
	}
}
