// Package solarsim simulates rooftop photovoltaic sites: clear-sky solar
// geometry (package sun) modulated by a regional weather field (package
// weather), a tilted-panel incidence model, inverter clipping, and
// measurement noise. Its output is the per-site generation telemetry that
// Enphase-style cloud dashboards expose — the dataset the paper's §II-B
// localization attacks (SunSpot, Weatherman) operate on.
package solarsim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"privmem/internal/sun"
	"privmem/internal/timeseries"
	"privmem/internal/weather"
)

// ErrBadSite indicates invalid site parameters.
var ErrBadSite = errors.New("solarsim: invalid site")

// Site describes one rooftop PV installation.
type Site struct {
	// Name identifies the site ("site-3").
	Name string
	// Lat and Lon are the true coordinates in degrees (the secret the
	// localization attacks recover).
	Lat, Lon float64
	// CapacityW is the DC nameplate capacity in watts.
	CapacityW float64
	// TiltDeg is the panel tilt from horizontal (default 25).
	TiltDeg float64
	// AzimuthDeg is the panel azimuth: 180 = due south; smaller values face
	// east, larger face west. Sites with strong east/west skew distort the
	// apparent solar noon, which is what makes some SunSpot localizations
	// inaccurate in Figure 5.
	AzimuthDeg float64
	// InverterLimitW clips AC output (0 disables clipping).
	InverterLimitW float64
	// NoiseStd is relative telemetry noise (default 0.01).
	NoiseStd float64
}

func (s *Site) validate() error {
	switch {
	case s.Lat < -66 || s.Lat > 66:
		return fmt.Errorf("%w %q: latitude %v", ErrBadSite, s.Name, s.Lat)
	case s.Lon < -180 || s.Lon > 180:
		return fmt.Errorf("%w %q: longitude %v", ErrBadSite, s.Name, s.Lon)
	case s.CapacityW <= 0:
		return fmt.Errorf("%w %q: capacity %v W", ErrBadSite, s.Name, s.CapacityW)
	case s.TiltDeg < 0 || s.TiltDeg > 90:
		return fmt.Errorf("%w %q: tilt %v", ErrBadSite, s.Name, s.TiltDeg)
	case s.AzimuthDeg < 0 || s.AzimuthDeg > 360:
		return fmt.Errorf("%w %q: azimuth %v", ErrBadSite, s.Name, s.AzimuthDeg)
	case s.NoiseStd < 0:
		return fmt.Errorf("%w %q: noise %v", ErrBadSite, s.Name, s.NoiseStd)
	}
	return nil
}

// Generate simulates the site's generation telemetry at the given step over
// [start, start+days). The weather field may be nil for always-clear skies.
// Output units are watts AC.
func Generate(site Site, field *weather.Field, start time.Time, days int, step time.Duration, seed int64) (*timeseries.Series, error) {
	if err := site.validate(); err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	if days <= 0 || step <= 0 {
		return nil, fmt.Errorf("generate: %w: days=%d step=%v", ErrBadSite, days, step)
	}
	n := days * int(24*time.Hour/step)
	out := timeseries.MustNew(start, step, n)
	rng := rand.New(rand.NewSource(seed))
	// Diffuse-plus-beam flat-plate model: panels see diffuse light from
	// dawn onward regardless of orientation (which is why generation
	// tracks sunrise and sunset closely), while the beam component
	// follows the panel's incidence geometry. The site trigonometry is
	// constant across the trace, so hoist it (bit-identical to
	// sun.PlateOutput — see sun.PlateSite).
	const diffuseFrac = 0.16
	ps := sun.NewPlateSite(site.Lat, site.Lon, site.TiltDeg, site.AzimuthDeg, diffuseFrac)
	var point weather.Point
	if field != nil {
		point = field.Point(site.Lat, site.Lon)
	}
	for i := 0; i < n; i++ {
		t := out.TimeAt(i)
		poa := ps.OutputTrig(t, sun.EphemerisAt(t).Trig())
		if poa <= 0 {
			continue
		}
		p := site.CapacityW / 1000 * poa
		if field != nil {
			p *= 1 - 0.78*point.Cloud(t)
		}
		if site.NoiseStd > 0 {
			p *= 1 + site.NoiseStd*rng.NormFloat64()
		}
		if site.InverterLimitW > 0 && p > site.InverterLimitW {
			p = site.InverterLimitW
		}
		if p < 0 {
			p = 0
		}
		out.Values[i] = p
	}
	return out, nil
}

// Fleet builds the 10-site benchmark fleet of the paper's Figure 5: sites
// scattered across a wide coordinate span, most south-facing, with a few
// strongly east- or west-skewed rooftops (the sites SunSpot localizes
// poorly).
func Fleet(seed int64) []Site {
	rng := rand.New(rand.NewSource(seed))
	// Coordinate span roughly covering the northeastern US states.
	sites := make([]Site, 0, 10)
	for i := 0; i < 10; i++ {
		lat := 36 + 10*rng.Float64()
		lon := -88 + 16*rng.Float64()
		az := 180.0 + rng.NormFloat64()*4
		switch i {
		case 3: // strongly east-facing rooftop
			az = 120
		case 7: // strongly west-facing rooftop
			az = 245
		case 5: // moderately east-facing
			az = 150
		}
		sites = append(sites, Site{
			Name:           fmt.Sprintf("site-%d", i+1),
			Lat:            lat,
			Lon:            lon,
			CapacityW:      3000 + 5000*rng.Float64(),
			TiltDeg:        18 + 17*rng.Float64(),
			AzimuthDeg:     az,
			InverterLimitW: 0,
			NoiseStd:       0.01,
		})
	}
	return sites
}
