package solarsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"privmem/internal/sun"
	"privmem/internal/timeseries"
	"privmem/internal/weather"
)

var simStart = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

func southSite() Site {
	return Site{
		Name: "test", Lat: 42.4, Lon: -72.5, CapacityW: 5000,
		TiltDeg: 25, AzimuthDeg: 180, NoiseStd: 0.01,
	}
}

func TestGenerateShape(t *testing.T) {
	gen, err := Generate(southSite(), nil, simStart, 2, time.Minute, 1)
	if err != nil {
		t.Fatal(err)
	}
	if gen.Len() != 2*1440 {
		t.Fatalf("len = %d", gen.Len())
	}
	if gen.Min() < 0 {
		t.Error("negative generation")
	}
	peak := gen.Max()
	if peak < 2000 || peak > 7000 {
		t.Errorf("peak = %.0f W for a 5 kW array", peak)
	}
	// No generation at local night (~06:00 UTC is ~01:00 local).
	if v := gen.At(simStart.Add(6 * time.Hour)); v != 0 {
		t.Errorf("night generation = %v", v)
	}
	// Peak should occur near solar noon.
	dt, err := sun.RiseSet(simStart, 42.4, -72.5)
	if err != nil {
		t.Fatal(err)
	}
	noonIdx := int(dt.NoonMin)
	best := 0
	for i := 0; i < 1440; i++ {
		if gen.Values[i] > gen.Values[best] {
			best = i
		}
	}
	if abs(best-noonIdx) > 45 {
		t.Errorf("peak at minute %d, solar noon at %d", best, noonIdx)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestGenerateProductionTracksSunriseSunset(t *testing.T) {
	// At this longitude the solar day straddles UTC midnight, so examine
	// the production run containing day 0's solar noon within a 2-day
	// trace rather than trace-wide first/last samples.
	gen, err := Generate(southSite(), nil, simStart, 2, time.Minute, 2)
	if err != nil {
		t.Fatal(err)
	}
	dt, err := sun.RiseSet(simStart, 42.4, -72.5)
	if err != nil {
		t.Fatal(err)
	}
	noon := int(dt.NoonMin)
	if gen.Values[noon] <= 1 {
		t.Fatal("no production at solar noon")
	}
	first := noon
	for first > 0 && gen.Values[first-1] > 1 {
		first--
	}
	last := noon
	for last+1 < gen.Len() && gen.Values[last+1] > 1 {
		last++
	}
	// Production begins within ~30 min of sunrise (diffuse light) and ends
	// within ~30 min of sunset.
	if abs(first-int(dt.SunriseMin)) > 30 {
		t.Errorf("production start %d vs sunrise %.0f", first, dt.SunriseMin)
	}
	if abs(last-int(dt.SunsetMin)) > 30 {
		t.Errorf("production end %d vs sunset %.0f", last, dt.SunsetMin)
	}
}

func TestCloudReducesGeneration(t *testing.T) {
	cfg := weather.DefaultFieldConfig(3)
	cfg.MeanCloud = 0.7
	field, err := weather.NewField(cfg, simStart, 24*5, 42)
	if err != nil {
		t.Fatal(err)
	}
	clear, err := Generate(southSite(), nil, simStart, 5, time.Minute, 4)
	if err != nil {
		t.Fatal(err)
	}
	cloudy, err := Generate(southSite(), field, simStart, 5, time.Minute, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cloudy.Energy() >= clear.Energy()*0.8 {
		t.Errorf("cloud barely reduced energy: %.0f vs %.0f Wh",
			cloudy.Energy(), clear.Energy())
	}
}

func TestEastFacingShiftsPeakEarlier(t *testing.T) {
	east := southSite()
	east.AzimuthDeg = 120
	sGen, err := Generate(southSite(), nil, simStart, 1, time.Minute, 5)
	if err != nil {
		t.Fatal(err)
	}
	eGen, err := Generate(east, nil, simStart, 1, time.Minute, 5)
	if err != nil {
		t.Fatal(err)
	}
	peakIdx := func(g []float64) int {
		best := 0
		for i, v := range g {
			if v > g[best] {
				best = i
			}
			_ = v
		}
		return best
	}
	if pe, ps := peakIdx(eGen.Values), peakIdx(sGen.Values); pe >= ps-15 {
		t.Errorf("east-facing peak %d not earlier than south-facing %d", pe, ps)
	}
}

func TestInverterClipping(t *testing.T) {
	s := southSite()
	s.InverterLimitW = 2000
	s.NoiseStd = 0
	gen, err := Generate(s, nil, simStart, 1, time.Minute, 6)
	if err != nil {
		t.Fatal(err)
	}
	if gen.Max() > 2000 {
		t.Errorf("max %v exceeds inverter limit", gen.Max())
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := southSite()
	bad.CapacityW = 0
	if _, err := Generate(bad, nil, simStart, 1, time.Minute, 1); !errors.Is(err, ErrBadSite) {
		t.Errorf("capacity error = %v", err)
	}
	bad = southSite()
	bad.Lat = 80
	if _, err := Generate(bad, nil, simStart, 1, time.Minute, 1); !errors.Is(err, ErrBadSite) {
		t.Errorf("latitude error = %v", err)
	}
	if _, err := Generate(southSite(), nil, simStart, 0, time.Minute, 1); !errors.Is(err, ErrBadSite) {
		t.Errorf("days error = %v", err)
	}
}

// TestGenerateRejectsStepNotDividingDay pins the step check: a step that
// does not divide 24 h used to return a short trace (7 min over 2 days
// gave 410 samples, ending 10 min early) or an empty one (25 h gave 0
// samples) with no error.
func TestGenerateRejectsStepNotDividingDay(t *testing.T) {
	for _, step := range []time.Duration{7 * time.Minute, 25 * time.Hour, 0, -time.Minute} {
		if gen, err := Generate(southSite(), nil, simStart, 2, step, 1); !errors.Is(err, ErrBadSite) {
			t.Errorf("step %v: error = %v (trace %v), want ErrBadSite", step, err, gen)
		}
		if _, err := NewGrid(simStart, 2, step); !errors.Is(err, ErrBadSite) {
			t.Errorf("step %v: NewGrid error = %v, want ErrBadSite", step, err)
		}
	}
	for _, step := range []time.Duration{time.Minute, 5 * time.Minute, 90 * time.Minute, 24 * time.Hour} {
		gen, err := Generate(southSite(), nil, simStart, 2, step, 1)
		if err != nil {
			t.Fatalf("step %v: %v", step, err)
		}
		if end := gen.TimeAt(gen.Len()); !end.Equal(simStart.Add(48 * time.Hour)) {
			t.Errorf("step %v: trace ends at %v", step, end)
		}
	}
}

// referenceGenerate is the per-instant Generate that the grid form
// replaced, kept as the exactness oracle: it computes
// sun.EphemerisAt(t).Trig() inside the loop, for every site anew.
func referenceGenerate(site Site, field *weather.Field, start time.Time, days int, step time.Duration, seed int64) (*timeseries.Series, error) {
	if err := site.validate(); err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	if days <= 0 || step <= 0 {
		return nil, fmt.Errorf("generate: %w: days=%d step=%v", ErrBadSite, days, step)
	}
	n := days * int(24*time.Hour/step)
	out := timeseries.MustNew(start, step, n)
	rng := rand.New(rand.NewSource(seed))
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

// TestGridGenerateMatchesReference pins generation on a shared grid to the
// per-instant reference bit for bit, for sites that differ in latitude,
// longitude, tilt and azimuth (with and without noise, clipping and a
// weather field) on one grid per step, at 1- and 5-minute steps.
func TestGridGenerateMatchesReference(t *testing.T) {
	const days = 4
	field, err := weather.NewField(weather.DefaultFieldConfig(5), simStart, days*24, 42)
	if err != nil {
		t.Fatal(err)
	}
	sites := []Site{
		southSite(),
		{Name: "east", Lat: 36.2, Lon: -88, CapacityW: 7000, TiltDeg: 34, AzimuthDeg: 120, NoiseStd: 0.02},
		{Name: "west", Lat: 46.9, Lon: -71.3, CapacityW: 3100, TiltDeg: 18, AzimuthDeg: 245, InverterLimitW: 2000},
		{Name: "south", Lat: -33.9, Lon: 151.2, CapacityW: 4000, TiltDeg: 0, AzimuthDeg: 0},
		{Name: "steep", Lat: 60, Lon: 10.7, CapacityW: 9000, TiltDeg: 90, AzimuthDeg: 200, NoiseStd: 0.05},
	}
	for _, step := range []time.Duration{time.Minute, 5 * time.Minute} {
		grid, err := NewGrid(simStart, days, step)
		if err != nil {
			t.Fatal(err)
		}
		for i, site := range sites {
			for _, f := range []*weather.Field{nil, field} {
				seed := int64(10 + i)
				want, err := referenceGenerate(site, f, simStart, days, step, seed)
				if err != nil {
					t.Fatal(err)
				}
				got, err := grid.Generate(site, f, seed)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Start.Equal(want.Start) || got.Step != want.Step || got.Len() != want.Len() {
					t.Fatalf("%s step %v: shape %v/%v/%d, reference %v/%v/%d", site.Name, step,
						got.Start, got.Step, got.Len(), want.Start, want.Step, want.Len())
				}
				var lit int
				for j := range want.Values {
					if math.Float64bits(got.Values[j]) != math.Float64bits(want.Values[j]) {
						t.Fatalf("%s step %v field %v: value[%d] = %v, reference %v",
							site.Name, step, f != nil, j, got.Values[j], want.Values[j])
					}
					if want.Values[j] > 0 {
						lit++
					}
				}
				if lit == 0 {
					t.Errorf("%s step %v: no generation to compare", site.Name, step)
				}
			}
		}
	}
}

func TestFleetProperties(t *testing.T) {
	sites := Fleet(7)
	if len(sites) != 10 {
		t.Fatalf("fleet size = %d", len(sites))
	}
	var skewed int
	for _, s := range sites {
		if err := s.validate(); err != nil {
			t.Errorf("fleet site invalid: %v", err)
		}
		if s.AzimuthDeg < 160 || s.AzimuthDeg > 200 {
			skewed++
		}
	}
	if skewed != 3 {
		t.Errorf("fleet has %d skewed sites, want 3 (Figure 5 outliers)", skewed)
	}
	// Deterministic.
	again := Fleet(7)
	for i := range sites {
		if sites[i] != again[i] {
			t.Fatal("Fleet not deterministic")
		}
	}
}
