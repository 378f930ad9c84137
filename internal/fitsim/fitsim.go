// Package fitsim simulates wearable fitness-tracker data (§II-C of the
// paper): users whose runs start and end at home, GPS point streams, and
// heart-rate series with optional arrhythmia. It also models the Strava
// scenario the paper cites [6]: a sensitive facility whose personnel run
// laps inside its perimeter, publishing "anonymous" activity traces.
//
// The attacks in package fitprint consume only what a cloud fitness service
// would expose — activity GPS tracks and heart-rate streams — mirroring how
// the energy attacks consume only meter data.
package fitsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// ErrBadConfig indicates invalid simulation parameters.
var ErrBadConfig = errors.New("fitsim: invalid config")

// Point is one GPS sample of an activity.
type Point struct {
	// Lat and Lon are in degrees.
	Lat, Lon float64
	// T is the sample time.
	T time.Time
}

// Activity is one recorded workout.
type Activity struct {
	// User is the owner's index in the simulation.
	User int
	// Trail marks ground truth: the run started at the shared trailhead
	// rather than at home. Attackers must not read this field.
	Trail bool
	// Start is the activity start time.
	Start time.Time
	// Points is the GPS track (5-second sampling).
	Points []Point
	// HeartRate holds one BPM sample per GPS point.
	HeartRate []float64
}

// User is a simulated tracker owner.
type User struct {
	// HomeLat and HomeLon are the secret home coordinates.
	HomeLat, HomeLon float64
	// RestingBPM is the user's resting heart rate.
	RestingBPM float64
	// Arrhythmia marks users whose heart rhythm is irregular (the AFib
	// detection scenario of [23]).
	Arrhythmia bool
}

// Config parameterizes a fitness-population simulation.
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// Users is the population size.
	Users int
	// Days is the simulated span.
	Days int
	// CenterLat and CenterLon anchor the town; homes scatter within
	// SpreadKm of it.
	CenterLat, CenterLon float64
	SpreadKm             float64
	// RunsPerWeek is the expected activity count per user per week.
	RunsPerWeek float64
	// ArrhythmiaFraction of users carry an irregular rhythm.
	ArrhythmiaFraction float64
	// TrailFraction of runs happen on the town's popular shared trail
	// rather than from home (drive-to-trailhead runs). Popular routes are
	// what keeps aggregate heatmaps useful after k-anonymity suppression.
	TrailFraction float64
}

// DefaultConfig returns a 40-user town.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:               seed,
		Users:              40,
		Days:               28,
		CenterLat:          42.38,
		CenterLon:          -72.52,
		SpreadKm:           6,
		RunsPerWeek:        4,
		ArrhythmiaFraction: 0.1,
		TrailFraction:      0.3,
	}
}

func (c *Config) validate() error {
	switch {
	case c.Users <= 0:
		return fmt.Errorf("%w: users %d", ErrBadConfig, c.Users)
	case c.Days <= 0:
		return fmt.Errorf("%w: days %d", ErrBadConfig, c.Days)
	case c.SpreadKm <= 0:
		return fmt.Errorf("%w: spread %v km", ErrBadConfig, c.SpreadKm)
	case c.RunsPerWeek < 0:
		return fmt.Errorf("%w: runs/week %v", ErrBadConfig, c.RunsPerWeek)
	case c.ArrhythmiaFraction < 0 || c.ArrhythmiaFraction > 1:
		return fmt.Errorf("%w: arrhythmia fraction %v", ErrBadConfig, c.ArrhythmiaFraction)
	case c.TrailFraction < 0 || c.TrailFraction > 1:
		return fmt.Errorf("%w: trail fraction %v", ErrBadConfig, c.TrailFraction)
	}
	return nil
}

// World is a simulated fitness population with ground truth.
type World struct {
	// Users holds the secret per-user ground truth.
	Users []User
	// Activities is what the cloud service stores (and may publish).
	Activities []Activity
}

// kmPerDegLat is the local flat-earth scale used for the small simulated
// region.
const kmPerDegLat = 111.2

func kmPerDegLon(lat float64) float64 { return kmPerDegLat * math.Cos(lat*math.Pi/180) }

// Simulate builds the population and its activity history.
func Simulate(cfg Config) (*World, error) {
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("fitsim: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &World{}
	start := time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)
	for u := 0; u < cfg.Users; u++ {
		user := User{
			HomeLat:    cfg.CenterLat + rng.NormFloat64()*cfg.SpreadKm/2/kmPerDegLat,
			HomeLon:    cfg.CenterLon + rng.NormFloat64()*cfg.SpreadKm/2/kmPerDegLon(cfg.CenterLat),
			RestingBPM: 52 + 18*rng.Float64(),
			Arrhythmia: rng.Float64() < cfg.ArrhythmiaFraction,
		}
		w.Users = append(w.Users, user)
		for d := 0; d < cfg.Days; d++ {
			if rng.Float64() >= cfg.RunsPerWeek/7 {
				continue
			}
			at := start.Add(time.Duration(d)*24*time.Hour +
				time.Duration(6+rng.Intn(14))*time.Hour +
				time.Duration(rng.Intn(60))*time.Minute)
			if rng.Float64() < cfg.TrailFraction {
				w.Activities = append(w.Activities, runOnTrail(rng, cfg, u, user, at))
			} else {
				w.Activities = append(w.Activities, runFromHome(rng, u, user, at))
			}
		}
	}
	return w, nil
}

// runFromHome generates an out-and-back run starting and ending at home —
// the start/end-location leak the paper calls out.
func runFromHome(rng *rand.Rand, idx int, user User, at time.Time) Activity {
	act := Activity{User: idx, Start: at}
	distKm := 2 + 6*rng.Float64() // one-way leg
	bearing := 2 * math.Pi * rng.Float64()
	const speedKmH = 10.0
	const sampleSec = 5.0
	stepKm := speedKmH / 3600 * sampleSec
	n := int(2 * distKm / stepKm)
	lat, lon := user.HomeLat, user.HomeLon
	halfway := n / 2
	for i := 0; i <= n; i++ {
		if i == halfway {
			bearing += math.Pi // turn around
		}
		// Wobble the bearing so the track is not a perfect line.
		b := bearing + 0.3*rng.NormFloat64()
		lat += stepKm * math.Cos(b) / kmPerDegLat
		lon += stepKm * math.Sin(b) / kmPerDegLon(lat)
		act.Points = append(act.Points, Point{
			Lat: lat + rng.NormFloat64()*0.00004, // ~4 m GPS noise
			Lon: lon + rng.NormFloat64()*0.00004,
			T:   at.Add(time.Duration(float64(i) * sampleSec * float64(time.Second))),
		})
		act.HeartRate = append(act.HeartRate, heartRateSample(rng, user, float64(i)/float64(n)))
	}
	return act
}

// heartRateSample draws one BPM value at workout progress p in [0,1].
func heartRateSample(rng *rand.Rand, user User, p float64) float64 {
	effort := 60 + 30*math.Sin(math.Pi*p) // warm up, peak, cool down
	hr := user.RestingBPM + effort + 3*rng.NormFloat64()
	if user.Arrhythmia {
		// Irregular rhythm: heavy-tailed beat-to-beat swings.
		hr += 22 * rng.NormFloat64()
		if rng.Float64() < 0.08 {
			hr += 35 * (rng.Float64() - 0.3)
		}
	}
	return max(40, hr)
}

// runOnTrail generates an out-and-back run on the town's shared trail: it
// starts at the fixed trailhead, not at home.
func runOnTrail(rng *rand.Rand, cfg Config, idx int, user User, at time.Time) Activity {
	act := Activity{User: idx, Trail: true, Start: at}
	// The trailhead sits 2 km east of the town center; the trail bears
	// northeast.
	headLat := cfg.CenterLat
	headLon := cfg.CenterLon + 2/kmPerDegLon(cfg.CenterLat)
	bearing := math.Pi / 4
	distKm := 2 + 3*rng.Float64()
	const stepKm = 10.0 / 3600 * 5
	n := int(2 * distKm / stepKm)
	lat, lon := headLat, headLon
	halfway := n / 2
	for i := 0; i <= n; i++ {
		if i == halfway {
			bearing += math.Pi
		}
		b := bearing + 0.05*rng.NormFloat64() // trails constrain wobble
		lat += stepKm * math.Cos(b) / kmPerDegLat
		lon += stepKm * math.Sin(b) / kmPerDegLon(lat)
		act.Points = append(act.Points, Point{
			Lat: lat + rng.NormFloat64()*0.00004,
			Lon: lon + rng.NormFloat64()*0.00004,
			T:   at.Add(time.Duration(float64(i) * 5 * float64(time.Second))),
		})
		act.HeartRate = append(act.HeartRate, heartRateSample(rng, user, float64(i)/float64(n)))
	}
	return act
}

// FacilityConfig parameterizes the Strava scenario: personnel running laps
// inside a sensitive facility far from town.
type FacilityConfig struct {
	// Seed drives randomness.
	Seed int64
	// Lat and Lon locate the secret facility.
	Lat, Lon float64
	// Personnel is the number of users stationed there.
	Personnel int
	// Laps is the activity count per person over the span.
	Laps int
	// PerimeterKm is the loop radius.
	PerimeterKm float64
}

// DefaultFacility returns a 12-person remote facility.
func DefaultFacility(seed int64) FacilityConfig {
	return FacilityConfig{
		Seed:        seed,
		Lat:         42.95,
		Lon:         -72.05,
		Personnel:   12,
		Laps:        20,
		PerimeterKm: 0.5,
	}
}

// AddFacility appends the facility personnel's lap activities to the world,
// returning the first new user index.
func (w *World) AddFacility(cfg FacilityConfig) (int, error) {
	if cfg.Personnel <= 0 || cfg.Laps <= 0 || cfg.PerimeterKm <= 0 {
		return 0, fmt.Errorf("%w: facility config %+v", ErrBadConfig, cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	firstUser := len(w.Users)
	start := time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)
	for p := 0; p < cfg.Personnel; p++ {
		user := User{HomeLat: cfg.Lat, HomeLon: cfg.Lon, RestingBPM: 50 + 10*rng.Float64()}
		w.Users = append(w.Users, user)
		for l := 0; l < cfg.Laps; l++ {
			at := start.Add(time.Duration(rng.Intn(28*24)) * time.Hour)
			act := Activity{User: firstUser + p, Start: at}
			phase := 2 * math.Pi * rng.Float64()
			for i := 0; i <= 360; i += 2 {
				theta := phase + float64(i)*math.Pi/180
				act.Points = append(act.Points, Point{
					Lat: cfg.Lat + cfg.PerimeterKm*math.Cos(theta)/kmPerDegLat +
						rng.NormFloat64()*0.00004,
					Lon: cfg.Lon + cfg.PerimeterKm*math.Sin(theta)/kmPerDegLon(cfg.Lat) +
						rng.NormFloat64()*0.00004,
					T: at.Add(time.Duration(i) * 5 * time.Second / 2),
				})
				act.HeartRate = append(act.HeartRate, heartRateSample(rng, user, float64(i)/360))
			}
			w.Activities = append(w.Activities, act)
		}
	}
	return firstUser, nil
}

// ActivitiesOf returns a user's activities.
func (w *World) ActivitiesOf(user int) []Activity {
	var out []Activity
	for _, a := range w.Activities {
		if a.User == user {
			out = append(out, a)
		}
	}
	return out
}
