// Package sundance implements SunDance-style black-box solar disaggregation
// [21]: separating a net meter's single time series (consumption minus
// behind-the-meter solar generation) into its consumption and generation
// components, using only public knowledge — the clear-sky solar model and
// public weather-station data.
//
// The privacy significance (§II-B of the paper): utilities release
// "anonymized" net-meter datasets; SunDance lets an analytics company first
// recover the generation stream (which localizes the home via SunSpot or
// Weatherman) and then recover the consumption stream (which profiles the
// occupants via NIOM and NILM). Anonymized net-meter data is therefore not
// anonymous at all.
package sundance

import (
	"errors"
	"fmt"
	"math"
	"time"

	"privmem/internal/attack/weatherman"
	"privmem/internal/stats"
	"privmem/internal/sun"
	"privmem/internal/timeseries"
	"privmem/internal/weather"
)

// ErrBadInput indicates an unusable net-meter trace.
var ErrBadInput = errors.New("sundance: invalid input")

// Reference panel assumed by the attacker (identical role to SunSpot's
// forward model).
const (
	refTiltDeg  = 25.0
	refAzimuth  = 180.0
	refDiffuse  = 0.16
	cloudAtten  = 0.78
	capQuantile = 0.98
)

// Config parameterizes the disaggregation.
type Config struct {
	// MinExportW is the export magnitude that confirms solar presence
	// (default 100 W).
	MinExportW float64
	// Weatherman configures the embedded localization step.
	Weatherman weatherman.Config
}

// DefaultConfig returns the configuration used in the experiments.
func DefaultConfig() Config {
	return Config{MinExportW: 100, Weatherman: weatherman.DefaultConfig()}
}

// Result is the output of a disaggregation.
type Result struct {
	// Generation and Consumption are the recovered component series.
	Generation, Consumption *timeseries.Series
	// CapacityW is the estimated array capacity (nameplate-scale).
	CapacityW float64
	// Lat and Lon are the location estimate used for the solar model.
	Lat, Lon float64
}

// Disaggregate separates an hourly net-meter trace into generation and
// consumption, given the public weather-station dataset.
func Disaggregate(net *timeseries.Series, stations []weather.Station, cfg Config) (*Result, error) {
	if cfg.MinExportW == 0 {
		cfg.MinExportW = DefaultConfig().MinExportW
	}
	if cfg.MinExportW < 0 {
		return nil, fmt.Errorf("%w: min export %v W", ErrBadInput, cfg.MinExportW)
	}
	if net.Step != time.Hour {
		resampled, err := net.Resample(time.Hour)
		if err != nil {
			return nil, fmt.Errorf("sundance: %w", err)
		}
		net = resampled
	}
	if len(stations) == 0 {
		return nil, fmt.Errorf("%w: no stations", ErrBadInput)
	}

	// Export proxy: hours where the home pushed power into the grid are
	// lower bounds on generation.
	export := net.Clone().Map(func(v float64) float64 { return max(0, -v) })
	if export.Max() < cfg.MinExportW {
		return nil, fmt.Errorf("%w: no solar export detected (max %0.f W)", ErrBadInput, export.Max())
	}

	// Locate the site from the export stream's weather signature, then use
	// the best station's cloud history to drive the generation model.
	loc, err := weatherman.Localize(export, stations, cfg.Weatherman)
	if err != nil {
		return nil, fmt.Errorf("sundance: localize: %w", err)
	}
	best, _, err := weather.NearestStation(stations, loc.Lat, loc.Lon)
	if err != nil {
		return nil, fmt.Errorf("sundance: %w", err)
	}

	// Clear-sky reference output per hour at the estimated location.
	model := timeseries.MustNew(net.Start, net.Step, net.Len())
	for i := range model.Values {
		model.Values[i] = sun.PlateOutput(model.TimeAt(i).Add(30*time.Minute),
			loc.Lat, loc.Lon, refTiltDeg, refAzimuth, refDiffuse)
	}
	peakModel := model.Max()
	if peakModel <= 0 {
		return nil, fmt.Errorf("%w: solar model produced no output", ErrBadInput)
	}

	// Capacity: near-peak clear hours bound generation from below by the
	// export plus an (unknown) baseline consumption; the high quantile of
	// export/model ratios is a robust nameplate estimate.
	var ratios []float64
	for i, v := range export.Values {
		cloud := best.Cloud.At(export.TimeAt(i))
		m := model.Values[i] * (1 - cloudAtten*cloud)
		if model.Values[i] > 0.6*peakModel && cloud < 0.25 && v > cfg.MinExportW {
			ratios = append(ratios, v/m)
		}
	}
	if len(ratios) < 5 {
		return nil, fmt.Errorf("%w: only %d clear near-peak export hours", ErrBadInput, len(ratios))
	}
	scale := stats.Quantile(ratios, capQuantile)

	gen := timeseries.MustNew(net.Start, net.Step, net.Len())
	for i := range gen.Values {
		cloud := best.Cloud.At(gen.TimeAt(i))
		gen.Values[i] = scale * model.Values[i] * (1 - cloudAtten*cloud)
	}
	cons, err := net.Add(gen)
	if err != nil {
		return nil, fmt.Errorf("sundance: %w", err)
	}
	cons.Clamp(0, math.Inf(1))

	return &Result{
		Generation:  gen,
		Consumption: cons,
		CapacityW:   scale * peakModel,
		Lat:         loc.Lat,
		Lon:         loc.Lon,
	}, nil
}
