package sun

import (
	"math"
	"time"
)

// Hoisted flat-plate kernel. The SunSpot forward model and the PV
// simulator evaluate PlateOutputEph millions of times per suite run with
// most arguments held constant: the declination trigonometry is
// location-independent (shareable across every latitude probe of a day),
// and the site's latitude/tilt trigonometry is constant across a whole
// trace. TrigEphemeris and PlateSite precompute exactly those terms —
// each stored value is produced by the same math call on the same input
// as the inline expression it replaces, and OutputTrig runs the identical
// arithmetic in the identical order, so the hoisting is bit-transparent
// (pinned by TestOutputTrigMatchesPlateOutputEph).

// TrigEphemeris is an Ephemeris plus the sine and cosine of the
// declination — the only per-instant trigonometry PositionEph computes
// that does not depend on the observer's location.
type TrigEphemeris struct {
	Ephemeris
	SinDecl, CosDecl float64
}

// Trig extends an Ephemeris with its declination trigonometry.
func (e Ephemeris) Trig() TrigEphemeris {
	return TrigEphemeris{Ephemeris: e, SinDecl: math.Sin(e.DeclRad), CosDecl: math.Cos(e.DeclRad)}
}

// PlateSite carries one site's constant terms for the flat-plate model:
// geometry angles and every trig value that depends only on them.
type PlateSite struct {
	LonDeg      float64
	AzimuthDeg  float64
	DiffuseFrac float64

	sinLat, cosLat   float64
	cosTilt, sinTilt float64
	skyView          float64
}

// NewPlateSite precomputes the site constants for latDeg/lonDeg and a
// panel at tiltDeg/azimuthDeg with the given diffuse fraction.
func NewPlateSite(latDeg, lonDeg, tiltDeg, azimuthDeg, diffuseFrac float64) PlateSite {
	lat := latDeg * degToRad
	return PlateSite{
		LonDeg:      lonDeg,
		AzimuthDeg:  azimuthDeg,
		DiffuseFrac: diffuseFrac,
		sinLat:      math.Sin(lat),
		cosLat:      math.Cos(lat),
		cosTilt:     math.Cos(tiltDeg * degToRad),
		sinTilt:     math.Sin(tiltDeg * degToRad),
		skyView:     (1 + math.Cos(tiltDeg*degToRad)) / 2,
	}
}

// HourAngle holds one instant's solar-time terms at a fixed longitude —
// the last piece of PositionEph that depends on the instant but not on the
// observer's latitude or the panel geometry. A latitude sweep over a fixed
// day grid can therefore share one HourAngle table across every probe.
type HourAngle struct {
	HaDeg, CosHA float64
}

// HourAngleAt computes the instant's hour angle at lonDeg, with the same
// expressions PositionEph uses inline.
func HourAngleAt(t time.Time, te TrigEphemeris, lonDeg float64) HourAngle {
	offset := te.EqMin + 4*lonDeg
	tst := float64(t.Hour())*60 + float64(t.Minute()) + float64(t.Second())/60 + offset
	haDeg := tst/4 - 180
	return HourAngle{HaDeg: haDeg, CosHA: math.Cos(haDeg * degToRad)}
}

// OutputTrig is PlateOutputEph with the declination and site trigonometry
// precomputed. Expression for expression it mirrors PositionEph,
// ghiFromZenith, and PlateOutputEph — including the left-to-right
// grouping of every product and the clamp order — so its result is
// bit-identical to the unhoisted chain. The one structural change is
// computing math.Cos(zen*degToRad) once where the originals evaluate the
// same expression three times; identical expression, identical bits.
func (s *PlateSite) OutputTrig(t time.Time, te TrigEphemeris) float64 {
	return s.OutputTrigHA(te, HourAngleAt(t, te, s.LonDeg))
}

// OutputTrigHA is OutputTrig with the hour-angle terms precomputed as well;
// h must come from HourAngleAt at this site's longitude.
func (s *PlateSite) OutputTrigHA(te TrigEphemeris, h HourAngle) float64 {
	return s.FromSky(s.Sky(te, h))
}

// Sky holds one instant's flat-plate terms that do not depend on the panel
// tilt: the sun's position, the clear-sky irradiance split, and the
// sun-to-panel azimuth term. A Sky computed by one PlateSite serves every
// site that differs from it only in tilt.
type Sky struct {
	// lit is false when the sun is below the horizon or the clear-sky
	// irradiance is not positive; the output is then 0 at any tilt.
	lit bool
	// czd and szd are the cosine and sine of the zenith angle,
	// cosZenClamped is the beam denominator, and cosAzRel is the cosine of
	// the sun's azimuth relative to the panel's.
	czd, cosZenClamped, szd, cosAzRel float64
	// dhi is the diffuse and beamH the horizontal beam irradiance.
	dhi, beamH float64
}

// Sky computes the instant's tilt-independent terms; h must come from
// HourAngleAt at this site's longitude. It reads no tilt term of s.
//
// SunSpot's forward model calls Sky only at the instants that can decide
// a production window. It picks them with an upper bound on FromSky's
// output as a function of the zenith cosine, derived from the formulas
// below (sunspot's skyBound). A change to the irradiance model here must
// keep that bound valid; sunspot's TestSkyBoundHolds checks it.
func (s *PlateSite) Sky(te TrigEphemeris, h HourAngle) Sky {
	// PositionEph body, with Sin/Cos of declination and latitude hoisted.
	haDeg := h.HaDeg

	cosZen := s.sinLat*te.SinDecl + s.cosLat*te.CosDecl*h.CosHA
	cosZen = max(-1, min(1, cosZen))
	zenRad := math.Acos(cosZen)
	zen := zenRad * radToDeg

	// PlateOutputEph's night early-out, hoisted above the azimuth solve:
	// the azimuth feeds only the beam incidence term, which the original
	// never reaches when zen >= 90, so skipping it cannot change the
	// result. Below the horizon is half of all samples, so this skips
	// Sin+Acos for the bulk of a day sweep.
	if zen >= 90 {
		return Sky{}
	}

	sinZen := math.Sin(zenRad)
	var az float64
	if sinZen > 1e-9 {
		cosAz := (te.SinDecl - s.sinLat*cosZen) / (s.cosLat * sinZen)
		cosAz = max(-1, min(1, cosAz))
		az = math.Acos(cosAz) * radToDeg
		if haDeg > 0 {
			az = 360 - az
		}
	}
	czd := math.Cos(zen * degToRad)
	airMass := 1 / (czd + 0.50572*math.Pow(96.07995-zen, -1.6364))
	ghi := 1353 * math.Pow(0.7, math.Pow(airMass, 0.678)) * czd
	if ghi <= 0 {
		return Sky{}
	}
	dhi := s.DiffuseFrac * ghi
	return Sky{
		lit:           true,
		czd:           czd,
		cosZenClamped: max(0.03, czd),
		szd:           math.Sin(zen * degToRad),
		cosAzRel:      math.Cos((az - s.AzimuthDeg) * degToRad),
		dhi:           dhi,
		beamH:         ghi - dhi,
	}
}

// FromSky finishes the plate output at this site's tilt from an instant's
// Sky. The grouping of every product matches PlateOutputEph.
func (s *PlateSite) FromSky(k Sky) float64 {
	if !k.lit {
		return 0
	}
	cosInc := k.czd*s.cosTilt + k.szd*s.sinTilt*k.cosAzRel
	beamFactor := min(3, max(0, cosInc)/k.cosZenClamped)
	return k.dhi*s.skyView + k.beamH*beamFactor
}
