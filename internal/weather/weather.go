// Package weather generates spatially- and temporally-correlated synthetic
// cloud-cover fields and samples them at weather stations.
//
// The Weatherman attack [5] needs two physical properties of real weather:
// (a) cloud cover modulates solar generation, and (b) weather at two
// locations decorrelates with the distance between them. The generator
// realizes both: the cloud field is a sum of random spatial cosine modes
// whose wavelengths follow a configurable correlation length, with AR(1)
// temporal evolution of the mode amplitudes. Stations and solar sites that
// sample the same field therefore exhibit distance-dependent correlation,
// exactly the signal Weatherman exploits.
package weather

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"privmem/internal/metrics"
	"privmem/internal/par"
	"privmem/internal/timeseries"
)

// ErrBadConfig indicates invalid field parameters.
var ErrBadConfig = errors.New("weather: invalid config")

// FieldConfig parameterizes a regional cloud-cover field.
type FieldConfig struct {
	// Seed drives all randomness.
	Seed int64
	// Modes is the number of random spatial cosine modes (default 48).
	Modes int
	// CorrelationKm is the spatial correlation length (default 40 km):
	// points much closer than this see nearly identical weather.
	CorrelationKm float64
	// TimeStep is the temporal resolution of the field (default 1 hour).
	TimeStep time.Duration
	// Persistence is the AR(1) coefficient of mode amplitudes per time step
	// (default 0.85): higher values make weather systems last longer.
	Persistence float64
	// MeanCloud is the long-run average cloud cover in [0,1] (default 0.4).
	MeanCloud float64
}

// DefaultFieldConfig returns the regional field used in the experiments.
func DefaultFieldConfig(seed int64) FieldConfig {
	return FieldConfig{
		Seed:          seed,
		Modes:         48,
		CorrelationKm: 40,
		TimeStep:      time.Hour,
		Persistence:   0.85,
		MeanCloud:     0.4,
	}
}

func (c *FieldConfig) withDefaults() FieldConfig {
	out := *c
	d := DefaultFieldConfig(c.Seed)
	if out.Modes == 0 {
		out.Modes = d.Modes
	}
	if out.CorrelationKm == 0 {
		out.CorrelationKm = d.CorrelationKm
	}
	if out.TimeStep == 0 {
		out.TimeStep = d.TimeStep
	}
	if out.Persistence == 0 {
		out.Persistence = d.Persistence
	}
	if out.MeanCloud == 0 {
		out.MeanCloud = d.MeanCloud
	}
	return out
}

func (c *FieldConfig) validate() error {
	switch {
	case c.Modes < 1:
		return fmt.Errorf("%w: modes %d", ErrBadConfig, c.Modes)
	case c.CorrelationKm <= 0:
		return fmt.Errorf("%w: correlation %v km", ErrBadConfig, c.CorrelationKm)
	case c.TimeStep <= 0:
		return fmt.Errorf("%w: time step %v", ErrBadConfig, c.TimeStep)
	case c.Persistence < 0 || c.Persistence >= 1:
		return fmt.Errorf("%w: persistence %v", ErrBadConfig, c.Persistence)
	case c.MeanCloud < 0 || c.MeanCloud > 1:
		return fmt.Errorf("%w: mean cloud %v", ErrBadConfig, c.MeanCloud)
	}
	return nil
}

// Field is a realized cloud-cover field over a time span. Locations are
// (latitude, longitude) in degrees; internally they are projected to
// kilometers around the field's reference point.
type Field struct {
	cfg   FieldConfig
	start time.Time
	steps int
	// refLat is the projection reference latitude.
	refLat float64
	// Mode parameters: spatial frequency (1/km), phase, and per-step
	// amplitudes amp[t][k].
	freqX, freqY, phase []float64
	amp                 [][]float64
}

// NewField realizes a cloud field covering [start, start + steps*TimeStep).
// refLat is the latitude (degrees) used to convert longitude to kilometers.
func NewField(cfg FieldConfig, start time.Time, steps int, refLat float64) (*Field, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("new field: %w", err)
	}
	if steps <= 0 {
		return nil, fmt.Errorf("new field: %w: steps %d", ErrBadConfig, steps)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Field{
		cfg:    cfg,
		start:  start,
		steps:  steps,
		refLat: refLat,
		freqX:  make([]float64, cfg.Modes),
		freqY:  make([]float64, cfg.Modes),
		phase:  make([]float64, cfg.Modes),
		amp:    make([][]float64, steps),
	}
	for k := 0; k < cfg.Modes; k++ {
		// Wave numbers drawn around 1/CorrelationKm with random direction.
		mag := (0.3 + rng.Float64()) / cfg.CorrelationKm
		dir := 2 * math.Pi * rng.Float64()
		f.freqX[k] = mag * math.Cos(dir)
		f.freqY[k] = mag * math.Sin(dir)
		f.phase[k] = 2 * math.Pi * rng.Float64()
	}
	// AR(1) amplitudes with stationary unit variance.
	innov := math.Sqrt(1 - cfg.Persistence*cfg.Persistence)
	prev := make([]float64, cfg.Modes)
	for k := range prev {
		prev[k] = rng.NormFloat64()
	}
	for t := 0; t < steps; t++ {
		cur := make([]float64, cfg.Modes)
		for k := 0; k < cfg.Modes; k++ {
			cur[k] = cfg.Persistence*prev[k] + innov*rng.NormFloat64()
		}
		f.amp[t] = cur
		prev = cur
	}
	return f, nil
}

// Start returns the field's first instant.
func (f *Field) Start() time.Time { return f.start }

// Steps returns the number of time steps realized.
func (f *Field) Steps() int { return f.steps }

// TimeStep returns the field's temporal resolution.
func (f *Field) TimeStep() time.Duration { return f.cfg.TimeStep }

// Point is the field bound to one location. The spatial phase of every
// mode depends only on the location, so it is computed once here and each
// instant costs one weighted sum over the modes.
type Point struct {
	f *Field
	// modes[k] is mode k's spatial term at the location.
	modes []float64
}

// Point binds the field to a location for repeated sampling.
func (f *Field) Point(latDeg, lonDeg float64) Point {
	// Local equirectangular projection to km.
	y := latDeg * 111.2
	x := lonDeg * 111.2 * math.Cos(f.refLat*math.Pi/180)
	modes := make([]float64, f.cfg.Modes)
	for k := range modes {
		modes[k] = math.Cos(f.freqX[k]*x + f.freqY[k]*y + f.phase[k])
	}
	return Point{f: f, modes: modes}
}

// Cloud returns cloud cover in [0,1] at the point's location and instant t.
// Instants outside the realized span clamp to the nearest step.
func (p Point) Cloud(t time.Time) float64 {
	step := int(t.Sub(p.f.start) / p.f.cfg.TimeStep)
	if step < 0 {
		step = 0
	}
	if step >= p.f.steps {
		step = p.f.steps - 1
	}
	return p.cloudStep(step)
}

// cloudStep returns cloud cover at the point for an in-range step index.
// CloudSeries indexes steps directly: the time arithmetic Cloud does
// would cost as much as the sum itself.
func (p Point) cloudStep(step int) float64 {
	amp := p.f.amp[step]
	var v float64
	for k, m := range p.modes {
		v += amp[k] * m
	}
	v /= math.Sqrt(float64(len(p.modes)) / 2)
	// Squash the ~N(0,1) value into [0,1] around the configured mean.
	cloud := p.f.cfg.MeanCloud + 0.35*v
	return max(0, min(1, cloud))
}

// CloudAt returns cloud cover in [0,1] at a location and instant. Instants
// outside the realized span clamp to the nearest step. Callers sampling one
// location repeatedly should bind it once with Point.
func (f *Field) CloudAt(latDeg, lonDeg float64, t time.Time) float64 {
	return f.Point(latDeg, lonDeg).Cloud(t)
}

// CloudSeries samples the field at one location over its whole span.
func (f *Field) CloudSeries(latDeg, lonDeg float64) *timeseries.Series {
	out := timeseries.MustNew(f.start, f.cfg.TimeStep, f.steps)
	p := f.Point(latDeg, lonDeg)
	for i := range out.Values {
		out.Values[i] = p.cloudStep(i)
	}
	return out
}

// Station is a public weather station: a named location whose cloud-cover
// history is available to anyone (the public dataset Weatherman correlates
// against).
type Station struct {
	// Name identifies the station.
	Name string
	// Lat and Lon are the station coordinates in degrees.
	Lat, Lon float64
	// Cloud is the station's hourly cloud-cover history.
	Cloud *timeseries.Series
}

// StationGrid samples the field at a regular grid of stations spanning
// [latMin, latMax] x [lonMin, lonMax] with the given spacing in degrees.
func StationGrid(f *Field, latMin, latMax, lonMin, lonMax, spacingDeg float64) ([]Station, error) {
	if spacingDeg <= 0 || latMax < latMin || lonMax < lonMin {
		return nil, fmt.Errorf("station grid: %w: bounds/spacing", ErrBadConfig)
	}
	var out []Station
	for lat := latMin; lat <= latMax+1e-9; lat += spacingDeg {
		for lon := lonMin; lon <= lonMax+1e-9; lon += spacingDeg {
			out = append(out, Station{
				Name: fmt.Sprintf("st-%.2f-%.2f", lat, lon),
				Lat:  lat,
				Lon:  lon,
			})
		}
	}
	// Each station's history is a pure read of the field.
	_ = par.For(len(out), func(i int) error {
		out[i].Cloud = f.CloudSeries(out[i].Lat, out[i].Lon)
		return nil
	})
	return out, nil
}

// NearestStation returns the station closest to the given point and the
// distance to it in kilometers.
func NearestStation(stations []Station, lat, lon float64) (Station, float64, error) {
	if len(stations) == 0 {
		return Station{}, 0, fmt.Errorf("nearest station: %w: no stations", ErrBadConfig)
	}
	best, bestD := stations[0], math.Inf(1)
	for _, s := range stations {
		if d := metrics.HaversineKm(lat, lon, s.Lat, s.Lon); d < bestD {
			best, bestD = s, d
		}
	}
	return best, bestD, nil
}
