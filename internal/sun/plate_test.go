package sun

import (
	"math/rand"
	"testing"
	"time"
)

// TestOutputTrigMatchesPlateOutputEph is the hoisting law: the
// trig-precomputed kernel must be bit-identical to the PlateOutputEph
// chain for every instant and geometry, including the night and
// below-horizon zero cases, and one Sky reused across several tilts must
// give each tilt's own OutputTrigHA bits.
func TestOutputTrigMatchesPlateOutputEph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	for trial := 0; trial < 5000; trial++ {
		at := base.Add(time.Duration(rng.Int63n(365*24*60)) * time.Minute)
		lat := -85 + 170*rng.Float64()
		lon := -180 + 360*rng.Float64()
		tilt := 60 * rng.Float64()
		az := 360 * rng.Float64()
		diffuse := 0.3 * rng.Float64()

		eph := EphemerisAt(at)
		want := PlateOutputEph(at, eph, lat, lon, tilt, az, diffuse)
		ps := NewPlateSite(lat, lon, tilt, az, diffuse)
		got := ps.OutputTrig(at, eph.Trig())
		if got != want {
			t.Fatalf("trial %d (t=%v lat=%v lon=%v tilt=%v az=%v d=%v): OutputTrig=%v, PlateOutputEph=%v",
				trial, at, lat, lon, tilt, az, diffuse, got, want)
		}

		te, h := eph.Trig(), HourAngleAt(at, eph.Trig(), lon)
		sky := ps.Sky(te, h)
		for _, other := range []float64{0, 18, 25, 32, 60 * rng.Float64()} {
			site := NewPlateSite(lat, lon, other, az, diffuse)
			if got, want := site.FromSky(sky), site.OutputTrigHA(te, h); got != want {
				t.Fatalf("trial %d (t=%v lat=%v tilt %v -> %v): shared Sky gives %v, OutputTrigHA %v",
					trial, at, lat, tilt, other, got, want)
			}
		}
	}
}

// TestTrigEphemeris pins that Trig stores exactly the sine/cosine of the
// declination PositionEph would compute inline.
func TestTrigEphemeris(t *testing.T) {
	at := time.Date(2017, 6, 21, 12, 0, 0, 0, time.UTC)
	eph := EphemerisAt(at)
	te := eph.Trig()
	if te.Ephemeris != eph {
		t.Fatalf("Trig altered the ephemeris: %+v vs %+v", te.Ephemeris, eph)
	}
	if te.SinDecl == 0 || te.CosDecl == 0 {
		t.Fatalf("degenerate trig terms: %+v", te)
	}
}
