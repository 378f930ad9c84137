// Package weatherman implements the Weatherman localization attack [5]:
// correlating a solar site's generation anomalies with publicly available
// per-station weather histories. Weather is locally unique — cloud cover at
// two points decorrelates with distance — so the station whose cloud-cover
// history best explains the site's generation dips pins the site's location,
// even from coarse 1-hour data where SunSpot's timing signal is weak.
package weatherman

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"privmem/internal/stats"
	"privmem/internal/timeseries"
	"privmem/internal/weather"
)

// ErrBadInput indicates unusable inputs.
var ErrBadInput = errors.New("weatherman: invalid input")

// Config parameterizes the attack.
type Config struct {
	// MinEnvelopeFrac restricts correlation to hours whose clear-sky
	// envelope exceeds this fraction of the site's overall peak, i.e.
	// daylight hours with meaningful signal (default 0.25).
	MinEnvelopeFrac float64
	// TopK is the number of best-correlated stations blended into the final
	// estimate (default 3).
	TopK int
	// MinSamples is the minimum number of usable hours (default 100).
	MinSamples int
}

// DefaultConfig returns the attack configuration used in the experiments.
func DefaultConfig() Config {
	return Config{MinEnvelopeFrac: 0.25, TopK: 3, MinSamples: 100}
}

func (c *Config) withDefaults() Config {
	out := *c
	d := DefaultConfig()
	if out.MinEnvelopeFrac == 0 {
		out.MinEnvelopeFrac = d.MinEnvelopeFrac
	}
	if out.TopK == 0 {
		out.TopK = d.TopK
	}
	if out.MinSamples == 0 {
		out.MinSamples = d.MinSamples
	}
	return out
}

func (c *Config) validate() error {
	switch {
	case c.MinEnvelopeFrac <= 0 || c.MinEnvelopeFrac >= 1:
		return fmt.Errorf("%w: envelope fraction %v", ErrBadInput, c.MinEnvelopeFrac)
	case c.TopK < 1:
		return fmt.Errorf("%w: top-k %d", ErrBadInput, c.TopK)
	case c.MinSamples < 10:
		return fmt.Errorf("%w: min samples %d", ErrBadInput, c.MinSamples)
	}
	return nil
}

// Estimate is a recovered location with its supporting evidence.
type Estimate struct {
	// Lat and Lon are the inferred coordinates in degrees.
	Lat, Lon float64
	// BestStation is the highest-correlated station name.
	BestStation string
	// BestCorrelation is that station's Pearson correlation with the site's
	// generation anomaly.
	BestCorrelation float64
	// SamplesUsed counts correlated hours.
	SamplesUsed int
}

// Localize runs Weatherman on an hourly generation trace against a public
// station set.
func Localize(gen *timeseries.Series, stations []weather.Station, cfg Config) (Estimate, error) {
	cfg = cfg.withDefaults()
	var est Estimate
	if err := cfg.validate(); err != nil {
		return est, err
	}
	if len(stations) == 0 {
		return est, fmt.Errorf("%w: no stations", ErrBadInput)
	}
	if gen.Step != time.Hour {
		resampled, err := gen.Resample(time.Hour)
		if err != nil {
			return est, fmt.Errorf("weatherman: %w", err)
		}
		gen = resampled
	}

	anomaly, indices, err := anomalySeries(gen, cfg)
	if err != nil {
		return est, err
	}

	type scored struct {
		station weather.Station
		r       float64
	}
	scores := make([]scored, 0, len(stations))
	for _, st := range stations {
		cloud := make([]float64, len(indices))
		for j, i := range indices {
			cloud[j] = st.Cloud.At(gen.TimeAt(i))
		}
		r, err := stats.Pearson(anomaly, cloud)
		if err != nil {
			continue
		}
		scores = append(scores, scored{station: st, r: r})
	}
	if len(scores) == 0 {
		return est, fmt.Errorf("%w: no correlatable stations", ErrBadInput)
	}
	sort.Slice(scores, func(a, b int) bool { return scores[a].r > scores[b].r })

	k := min(cfg.TopK, len(scores))
	base := 0.0
	if k < len(scores) {
		base = max(0, scores[k].r)
	}
	var wSum, latSum, lonSum float64
	for _, s := range scores[:k] {
		w := s.r - base
		if w <= 0 {
			w = 1e-6
		}
		wSum += w
		latSum += w * s.station.Lat
		lonSum += w * s.station.Lon
	}
	est.Lat = latSum / wSum
	est.Lon = lonSum / wSum
	est.BestStation = scores[0].station.Name
	est.BestCorrelation = scores[0].r
	est.SamplesUsed = len(anomaly)
	return est, nil
}

// anomalySeries converts generation to a cloudiness proxy: one minus the
// generation's fraction of its hour-of-day clear-sky envelope, evaluated at
// strong-daylight hours.
func anomalySeries(gen *timeseries.Series, cfg Config) (anomaly []float64, indices []int, err error) {
	const hoursPerDay = 24
	if gen.Len() < 2*hoursPerDay {
		return nil, nil, fmt.Errorf("%w: trace too short (%d h)", ErrBadInput, gen.Len())
	}
	// Hour-of-day envelope: the maximum observed generation at each UTC
	// hour approximates the clear-sky output for that hour.
	envelope := make([]float64, hoursPerDay)
	for i, v := range gen.Values {
		h := i % hoursPerDay
		envelope[h] = max(envelope[h], v)
	}
	peak := 0.0
	for _, v := range envelope {
		peak = max(peak, v)
	}
	if peak <= 0 {
		return nil, nil, fmt.Errorf("%w: no generation at all", ErrBadInput)
	}
	for i, v := range gen.Values {
		env := envelope[i%hoursPerDay]
		if env < cfg.MinEnvelopeFrac*peak {
			continue
		}
		a := 1 - v/env
		anomaly = append(anomaly, max(0, min(1, a)))
		indices = append(indices, i)
	}
	if len(anomaly) < cfg.MinSamples {
		return nil, nil, fmt.Errorf("%w: only %d usable hours (need %d)",
			ErrBadInput, len(anomaly), cfg.MinSamples)
	}
	return anomaly, indices, nil
}
