package sunspot

import (
	"errors"
	"math"
	"testing"
	"time"

	"privmem/internal/metrics"
	"privmem/internal/solarsim"
	"privmem/internal/timeseries"
	"privmem/internal/weather"
)

var ssStart = time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)

func site() solarsim.Site {
	return solarsim.Site{
		Name: "t", Lat: 42.4, Lon: -72.5, CapacityW: 6000,
		TiltDeg: 25, AzimuthDeg: 180, NoiseStd: 0.01,
	}
}

func TestLocalizeClearSkySouthFacing(t *testing.T) {
	gen, err := solarsim.Generate(site(), nil, ssStart, 365, time.Minute, 1)
	if err != nil {
		t.Fatal(err)
	}
	est, err := Localize(gen, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d := metrics.HaversineKm(42.4, -72.5, est.Lat, est.Lon)
	if d > 40 {
		t.Errorf("clear-sky south-facing error = %.1f km (est %.2f, %.2f)", d, est.Lat, est.Lon)
	}
	if est.DaysUsed < 300 {
		t.Errorf("days used = %d", est.DaysUsed)
	}
}

func TestLocalizeWithWeather(t *testing.T) {
	field, err := weather.NewField(weather.DefaultFieldConfig(2), ssStart, 365*24, 42)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := solarsim.Generate(site(), field, ssStart, 365, time.Minute, 3)
	if err != nil {
		t.Fatal(err)
	}
	est, err := Localize(gen, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d := metrics.HaversineKm(42.4, -72.5, est.Lat, est.Lon)
	if d > 150 {
		t.Errorf("weathered localization error = %.1f km", d)
	}
}

func TestSkewedSiteIsWorse(t *testing.T) {
	// The Figure 5 outlier mechanism: a strongly east-facing site shifts
	// the apparent solar noon, inflating the error well beyond the
	// south-facing case.
	s := site()
	sGen, err := solarsim.Generate(s, nil, ssStart, 365, time.Minute, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.AzimuthDeg = 120
	eGen, err := solarsim.Generate(s, nil, ssStart, 365, time.Minute, 4)
	if err != nil {
		t.Fatal(err)
	}
	southEst, err := Localize(sGen, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eastEst, err := Localize(eGen, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dS := metrics.HaversineKm(42.4, -72.5, southEst.Lat, southEst.Lon)
	dE := metrics.HaversineKm(42.4, -72.5, eastEst.Lat, eastEst.Lon)
	if dE < 3*dS {
		t.Errorf("skewed site error %.1f km not much worse than south-facing %.1f km", dE, dS)
	}
}

func TestLocalizeValidation(t *testing.T) {
	short := timeseries.MustNew(ssStart, time.Minute, 100)
	if _, err := Localize(short, DefaultConfig()); !errors.Is(err, ErrBadInput) {
		t.Errorf("short trace error = %v", err)
	}
	dark := timeseries.MustNew(ssStart, time.Minute, 30*1440)
	if _, err := Localize(dark, DefaultConfig()); !errors.Is(err, ErrBadInput) {
		t.Errorf("dark trace error = %v", err)
	}
	gen := timeseries.MustNew(ssStart, time.Minute, 30*1440)
	if _, err := Localize(gen, Config{Threshold: 0.9}); !errors.Is(err, ErrBadInput) {
		t.Errorf("bad threshold error = %v", err)
	}
	// NaN compares false against every bound, so a range check alone
	// accepts it; a NaN MinPeakW would silently switch off the
	// overcast-day filter on a trace that otherwise localizes.
	clearSky, err := solarsim.Generate(site(), nil, ssStart, 30, time.Minute, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Threshold: math.NaN()},
		{MinPeakW: math.NaN()},
		{MinPeakW: math.Inf(1)},
	} {
		d := cfg.withDefaults()
		if err := d.validate(); !errors.Is(err, ErrBadInput) {
			t.Errorf("config %+v: validate error = %v", cfg, err)
		}
		if _, err := Localize(clearSky, cfg); !errors.Is(err, ErrBadInput) {
			t.Errorf("config %+v: Localize error = %v", cfg, err)
		}
	}
	coarse := timeseries.MustNew(ssStart, 2*time.Hour, 360)
	if _, err := Localize(coarse, DefaultConfig()); !errors.Is(err, ErrBadInput) {
		t.Errorf("coarse step error = %v", err)
	}
	zeroStep := &timeseries.Series{Start: ssStart, Values: make([]float64, 30*1440)}
	if _, err := Localize(zeroStep, DefaultConfig()); !errors.Is(err, ErrBadInput) {
		t.Errorf("zero step error = %v", err)
	}
	if _, err := Localize(nil, DefaultConfig()); !errors.Is(err, ErrBadInput) {
		t.Errorf("nil trace error = %v", err)
	}
}

func TestAnchorsSkipOvercastDays(t *testing.T) {
	gen, err := solarsim.Generate(site(), nil, ssStart, 12, time.Minute, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Black out days 4-7 (deep overcast).
	for d := 4; d <= 7; d++ {
		for i := d * 1440; i < (d+1)*1440; i++ {
			gen.Values[i] = 0
		}
	}
	anchors := extractAnchors(gen, DefaultConfig())
	// 12 days minus 4 overcast minus the first/last (array-edge guard).
	if len(anchors) < 6 || len(anchors) > 8 {
		t.Errorf("got %d anchors", len(anchors))
	}
	for _, a := range anchors {
		if a.sunsetMin <= a.sunriseMin {
			t.Errorf("anchor inverted: %+v", a)
		}
		if l := a.sunsetMin - a.sunriseMin; l < 4*60 || l > 20*60 {
			t.Errorf("anchor length %.0f min implausible", l)
		}
	}
}
