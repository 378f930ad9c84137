// Package sun implements the NOAA solar-geometry equations: declination,
// equation of time, sunrise/sunset/solar-noon times, solar position, and a
// simple clear-sky irradiance model. The solar simulator and the solar
// attacks (SunSpot's forward model [4], SunDance's generation model) build
// on it.
//
// Conventions: latitude in degrees north (positive), longitude in degrees
// east (negative for the Americas), times in UTC.
package sun

import (
	"errors"
	"fmt"
	"math"
	"time"
)

const (
	degToRad = math.Pi / 180
	radToDeg = 180 / math.Pi
	// zenithSunrise is the solar zenith angle at official sunrise/sunset,
	// including refraction and the solar disc radius (NOAA: 90.833 deg).
	zenithSunrise = 90.833
)

// ErrPolar indicates the sun does not rise or set at the requested latitude
// and date (polar day or night).
var ErrPolar = errors.New("sun: no sunrise/sunset at this latitude and date")

// ErrBadInput indicates physically impossible inputs.
var ErrBadInput = errors.New("sun: invalid input")

// fractionalYear returns the NOAA fractional year angle (radians) for a UTC
// time.
func fractionalYear(t time.Time) float64 {
	doy := float64(t.YearDay())
	hour := float64(t.Hour()) + float64(t.Minute())/60
	return 2 * math.Pi / 365 * (doy - 1 + (hour-12)/24)
}

// Declination returns the solar declination in degrees for a UTC time.
func Declination(t time.Time) float64 {
	g := fractionalYear(t)
	d := 0.006918 - 0.399912*math.Cos(g) + 0.070257*math.Sin(g) -
		0.006758*math.Cos(2*g) + 0.000907*math.Sin(2*g) -
		0.002697*math.Cos(3*g) + 0.00148*math.Sin(3*g)
	return d * radToDeg
}

// EquationOfTime returns the equation of time in minutes for a UTC time:
// the difference between apparent and mean solar time.
func EquationOfTime(t time.Time) float64 {
	g := fractionalYear(t)
	return 229.18 * (0.000075 + 0.001868*math.Cos(g) - 0.032077*math.Sin(g) -
		0.014615*math.Cos(2*g) - 0.040849*math.Sin(2*g))
}

// DayTimes holds the three solar anchors of one day at one location, as
// minutes after 00:00 UTC.
type DayTimes struct {
	// SunriseMin, NoonMin, and SunsetMin are minutes after midnight UTC.
	SunriseMin, NoonMin, SunsetMin float64
}

// DayLengthMin returns the day length in minutes.
func (d DayTimes) DayLengthMin() float64 { return d.SunsetMin - d.SunriseMin }

// RiseSet computes sunrise, solar noon, and sunset (UTC minutes) for the
// given date and location using the NOAA algorithm.
func RiseSet(date time.Time, latDeg, lonDeg float64) (DayTimes, error) {
	var out DayTimes
	if latDeg < -90 || latDeg > 90 || lonDeg < -180 || lonDeg > 180 {
		return out, fmt.Errorf("%w: lat=%v lon=%v", ErrBadInput, latDeg, lonDeg)
	}
	noonUTC := time.Date(date.Year(), date.Month(), date.Day(), 12, 0, 0, 0, time.UTC)
	eq := EquationOfTime(noonUTC)
	decl := Declination(noonUTC) * degToRad
	lat := latDeg * degToRad

	cosHA := math.Cos(zenithSunrise*degToRad)/(math.Cos(lat)*math.Cos(decl)) -
		math.Tan(lat)*math.Tan(decl)
	if cosHA < -1 || cosHA > 1 {
		return out, fmt.Errorf("%w: lat=%.2f date=%s", ErrPolar, latDeg, date.Format("2006-01-02"))
	}
	ha := math.Acos(cosHA) * radToDeg

	out.SunriseMin = 720 - 4*(lonDeg+ha) - eq
	out.SunsetMin = 720 - 4*(lonDeg-ha) - eq
	out.NoonMin = 720 - 4*lonDeg - eq
	return out, nil
}

// Ephemeris caches the location-independent solar terms of one instant: the
// equation of time (minutes) and the declination (radians). The solar
// position and PlateOutput derive everything else from these two numbers
// plus the coordinates, so sweeps that evaluate many candidate locations at
// the same instants — SunSpot's latitude grid, the solar fleet — can hoist
// the trigonometry out of the location loop. The *Eph functions below
// accept a precomputed Ephemeris, so hoisting is bit-transparent.
type Ephemeris struct {
	// EqMin is the equation of time in minutes.
	EqMin float64
	// DeclRad is the solar declination in radians.
	DeclRad float64
}

// EphemerisAt computes the instant's ephemeris terms.
func EphemerisAt(t time.Time) Ephemeris {
	return Ephemeris{EqMin: EquationOfTime(t), DeclRad: Declination(t) * degToRad}
}

// PositionEph returns the solar zenith and azimuth angles (degrees) at a
// UTC instant and location, given the instant's ephemeris terms. Azimuth is
// measured clockwise from north.
func PositionEph(t time.Time, eph Ephemeris, latDeg, lonDeg float64) (zenithDeg, azimuthDeg float64) {
	eq := eph.EqMin
	decl := eph.DeclRad
	lat := latDeg * degToRad

	// True solar time in minutes.
	offset := eq + 4*lonDeg
	tst := float64(t.Hour())*60 + float64(t.Minute()) + float64(t.Second())/60 + offset
	haDeg := tst/4 - 180
	ha := haDeg * degToRad

	cosZen := math.Sin(lat)*math.Sin(decl) + math.Cos(lat)*math.Cos(decl)*math.Cos(ha)
	cosZen = max(-1, min(1, cosZen))
	zen := math.Acos(cosZen)

	// Azimuth from north, clockwise.
	sinZen := math.Sin(zen)
	var az float64
	if sinZen > 1e-9 {
		cosAz := (math.Sin(decl) - math.Sin(lat)*cosZen) / (math.Cos(lat) * sinZen)
		cosAz = max(-1, min(1, cosAz))
		az = math.Acos(cosAz) * radToDeg
		if haDeg > 0 {
			az = 360 - az
		}
	}
	return zen * radToDeg, az
}

// ghiFromZenith is the irradiance model given an already-computed zenith
// angle: Kasten-Young air mass with the Meinel clear-sky transmittance,
// GHI = 1353 * 0.7^(AM^0.678) * cos(zenith).
func ghiFromZenith(zen float64) float64 {
	if zen >= 90 {
		return 0
	}
	cosZen := math.Cos(zen * degToRad)
	airMass := 1 / (cosZen + 0.50572*math.Pow(96.07995-zen, -1.6364))
	return 1353 * math.Pow(0.7, math.Pow(airMass, 0.678)) * cosZen
}

// PlateOutput returns the relative clear-sky output (W/m^2-scale) of a
// tilted flat-plate collector at a UTC instant and location. GHI is split
// into a diffuse fraction, which the panel sees from dawn to dusk weighted
// by its sky-view factor, and a beam component scaled by the panel's
// incidence geometry. Both the PV simulator and the solar attacks
// (SunSpot's forward model, SunDance's generation model) build on this.
func PlateOutput(t time.Time, latDeg, lonDeg, tiltDeg, azimuthDeg, diffuseFrac float64) float64 {
	return PlateOutputEph(t, EphemerisAt(t), latDeg, lonDeg, tiltDeg, azimuthDeg, diffuseFrac)
}

// PlateOutputEph is PlateOutput with the instant's ephemeris terms
// precomputed. The zenith is computed once and feeds both the irradiance
// model and the incidence geometry.
func PlateOutputEph(t time.Time, eph Ephemeris, latDeg, lonDeg, tiltDeg, azimuthDeg, diffuseFrac float64) float64 {
	zen, az := PositionEph(t, eph, latDeg, lonDeg)
	if zen >= 90 {
		return 0
	}
	ghi := ghiFromZenith(zen)
	if ghi <= 0 {
		return 0
	}
	dhi := diffuseFrac * ghi
	beamH := ghi - dhi
	cosZen := max(0.03, math.Cos(zen*degToRad))
	cosInc := math.Cos(zen*degToRad)*math.Cos(tiltDeg*degToRad) +
		math.Sin(zen*degToRad)*math.Sin(tiltDeg*degToRad)*
			math.Cos((az-azimuthDeg)*degToRad)
	beamFactor := min(3, max(0, cosInc)/cosZen)
	skyView := (1 + math.Cos(tiltDeg*degToRad)) / 2
	return dhi*skyView + beamH*beamFactor
}
