package sun

import (
	"errors"
	"math"
	"testing"
	"time"
)

var (
	summer = time.Date(2017, 6, 21, 0, 0, 0, 0, time.UTC)
	winter = time.Date(2017, 12, 21, 0, 0, 0, 0, time.UTC)
	equinx = time.Date(2017, 3, 20, 0, 0, 0, 0, time.UTC)
)

func TestDeclinationSeasons(t *testing.T) {
	if d := Declination(summer.Add(12 * time.Hour)); math.Abs(d-23.44) > 0.5 {
		t.Errorf("summer solstice declination = %.2f, want ~23.44", d)
	}
	if d := Declination(winter.Add(12 * time.Hour)); math.Abs(d+23.44) > 0.5 {
		t.Errorf("winter solstice declination = %.2f, want ~-23.44", d)
	}
	if d := Declination(equinx.Add(12 * time.Hour)); math.Abs(d) > 1.5 {
		t.Errorf("equinox declination = %.2f, want ~0", d)
	}
}

func TestEquationOfTimeBounds(t *testing.T) {
	// EoT stays within about +/- 17 minutes over the year, peaking in
	// early November (~+16.5) and mid February (~-14).
	for doy := 0; doy < 365; doy++ {
		d := time.Date(2017, 1, 1, 12, 0, 0, 0, time.UTC).AddDate(0, 0, doy)
		eq := EquationOfTime(d)
		if eq < -17 || eq > 17 {
			t.Fatalf("EoT(%s) = %.1f out of range", d.Format("Jan 2"), eq)
		}
	}
	if eq := EquationOfTime(time.Date(2017, 11, 3, 12, 0, 0, 0, time.UTC)); eq < 14 {
		t.Errorf("early-November EoT = %.1f, want near maximum ~16", eq)
	}
}

func TestRiseSetKnownProperties(t *testing.T) {
	const lat, lon = 42.39, -72.53 // Amherst, MA
	sum, err := RiseSet(summer, lat, lon)
	if err != nil {
		t.Fatal(err)
	}
	win, err := RiseSet(winter, lat, lon)
	if err != nil {
		t.Fatal(err)
	}
	// Summer day ~15.3 h; winter day ~9.1 h at this latitude.
	if got := sum.DayLengthMin() / 60; math.Abs(got-15.3) > 0.3 {
		t.Errorf("summer day length = %.2f h", got)
	}
	if got := win.DayLengthMin() / 60; math.Abs(got-9.1) > 0.3 {
		t.Errorf("winter day length = %.2f h", got)
	}
	// Solar noon for lon=-72.53: 720 + 4*72.53 - eq ~ 1010 min (16:50 UTC).
	if math.Abs(sum.NoonMin-1010) > 10 {
		t.Errorf("solar noon = %.1f min UTC", sum.NoonMin)
	}
	// Noon is the midpoint of sunrise and sunset.
	if mid := (sum.SunriseMin + sum.SunsetMin) / 2; math.Abs(mid-sum.NoonMin) > 0.01 {
		t.Errorf("noon %.2f != midpoint %.2f", sum.NoonMin, mid)
	}
}

func TestRiseSetLongitudeShift(t *testing.T) {
	// Moving 15 degrees west delays sunrise by ~60 minutes.
	east, err := RiseSet(equinx, 40, -75)
	if err != nil {
		t.Fatal(err)
	}
	west, err := RiseSet(equinx, 40, -90)
	if err != nil {
		t.Fatal(err)
	}
	if shift := west.SunriseMin - east.SunriseMin; math.Abs(shift-60) > 1 {
		t.Errorf("15 deg westward sunrise shift = %.1f min, want ~60", shift)
	}
}

func TestRiseSetPolar(t *testing.T) {
	if _, err := RiseSet(summer, 80, 0); !errors.Is(err, ErrPolar) {
		t.Errorf("polar day error = %v", err)
	}
	if _, err := RiseSet(winter, 80, 0); !errors.Is(err, ErrPolar) {
		t.Errorf("polar night error = %v", err)
	}
	if _, err := RiseSet(summer, 95, 0); !errors.Is(err, ErrBadInput) {
		t.Errorf("bad latitude error = %v", err)
	}
}

func TestPositionNoonZenith(t *testing.T) {
	// At solar noon on the equinox at latitude 40, zenith ~= 40 degrees.
	const lat, lon = 40.0, -75.0
	dt, err := RiseSet(equinx, lat, lon)
	if err != nil {
		t.Fatal(err)
	}
	noon := equinx.Add(time.Duration(dt.NoonMin * float64(time.Minute)))
	zen, az := Position(noon, lat, lon)
	if math.Abs(zen-lat) > 1.5 {
		t.Errorf("equinox noon zenith = %.2f, want ~%v", zen, lat)
	}
	// Sun due south at noon in the northern hemisphere.
	if math.Abs(az-180) > 3 {
		t.Errorf("noon azimuth = %.2f, want ~180", az)
	}
}

func TestPositionMorningEastEveningWest(t *testing.T) {
	const lat, lon = 40.0, -75.0
	dt, _ := RiseSet(equinx, lat, lon)
	morning := equinx.Add(time.Duration((dt.SunriseMin + 60) * float64(time.Minute)))
	evening := equinx.Add(time.Duration((dt.SunsetMin - 60) * float64(time.Minute)))
	_, azM := Position(morning, lat, lon)
	_, azE := Position(evening, lat, lon)
	if azM > 180 {
		t.Errorf("morning azimuth = %.1f, want < 180 (east)", azM)
	}
	if azE < 180 {
		t.Errorf("evening azimuth = %.1f, want > 180 (west)", azE)
	}
}

// TestClearSkyGHI checks the clear-sky irradiance model PlateOutput builds
// on: a plausible noon peak, zero below the horizon, and a decrease away
// from noon.
func TestClearSkyGHI(t *testing.T) {
	const lat, lon = 40.0, -75.0
	ghi := func(at time.Time) float64 {
		zen, _ := Position(at, lat, lon)
		return ghiFromZenith(zen)
	}
	dt, _ := RiseSet(summer, lat, lon)
	noon := summer.Add(time.Duration(dt.NoonMin * float64(time.Minute)))
	peak := ghi(noon)
	if peak < 700 || peak > 1100 {
		t.Errorf("clear-sky noon GHI = %.0f W/m^2, want 700-1100", peak)
	}
	night := summer.Add(time.Duration((dt.SunriseMin - 90) * float64(time.Minute)))
	if g := ghi(night); g != 0 {
		t.Errorf("pre-dawn GHI = %v, want 0", g)
	}
	// Monotone decrease away from noon.
	afternoon := noon.Add(3 * time.Hour)
	if g := ghi(afternoon); g >= peak {
		t.Errorf("afternoon GHI %.0f >= noon %.0f", g, peak)
	}
}
