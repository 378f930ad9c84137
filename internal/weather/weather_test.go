package weather

import (
	"errors"
	"math"
	"testing"
	"time"

	"privmem/internal/stats"
)

var fieldStart = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

func testField(t *testing.T, seed int64, steps int) *Field {
	t.Helper()
	f, err := NewField(DefaultFieldConfig(seed), fieldStart, steps, 42)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewFieldValidation(t *testing.T) {
	cfg := DefaultFieldConfig(1)
	if _, err := NewField(cfg, fieldStart, 0, 42); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero steps error = %v", err)
	}
	bad := cfg
	bad.Persistence = 1.2
	if _, err := NewField(bad, fieldStart, 10, 42); !errors.Is(err, ErrBadConfig) {
		t.Errorf("persistence error = %v", err)
	}
	bad = cfg
	bad.MeanCloud = 2
	if _, err := NewField(bad, fieldStart, 10, 42); !errors.Is(err, ErrBadConfig) {
		t.Errorf("mean cloud error = %v", err)
	}
	bad = cfg
	bad.CorrelationKm = -1
	if _, err := NewField(bad, fieldStart, 10, 42); !errors.Is(err, ErrBadConfig) {
		t.Errorf("correlation error = %v", err)
	}
}

func TestCloudBoundsAndMean(t *testing.T) {
	f := testField(t, 3, 24*30)
	s := f.CloudSeries(42, -72)
	for i, v := range s.Values {
		if v < 0 || v > 1 {
			t.Fatalf("cloud[%d] = %v out of [0,1]", i, v)
		}
	}
	if m := s.Mean(); m < 0.2 || m > 0.6 {
		t.Errorf("mean cloud = %.2f, want near configured 0.4", m)
	}
	if s.Std() == 0 {
		t.Error("cloud series is constant")
	}
}

func TestSpatialCorrelationDecays(t *testing.T) {
	f := testField(t, 4, 24*60)
	base := f.CloudSeries(42, -72)
	near := f.CloudSeries(42.05, -72) // ~5.5 km away
	far := f.CloudSeries(44.5, -75)   // ~370 km away
	rNear, err := stats.Pearson(base.Values, near.Values)
	if err != nil {
		t.Fatal(err)
	}
	rFar, err := stats.Pearson(base.Values, far.Values)
	if err != nil {
		t.Fatal(err)
	}
	if rNear < 0.9 {
		t.Errorf("correlation at 5 km = %.3f, want > 0.9", rNear)
	}
	if rFar > rNear-0.2 {
		t.Errorf("correlation does not decay: near=%.3f far=%.3f", rNear, rFar)
	}
}

func TestTemporalPersistence(t *testing.T) {
	f := testField(t, 5, 24*60)
	s := f.CloudSeries(42, -72)
	// Lag-1 autocorrelation should be high (persistence 0.85).
	r, err := stats.Pearson(s.Values[:s.Len()-1], s.Values[1:])
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.6 {
		t.Errorf("lag-1 autocorrelation = %.3f, want > 0.6", r)
	}
}

func TestCloudAtClampsOutOfRange(t *testing.T) {
	f := testField(t, 6, 48)
	before := f.CloudAt(42, -72, fieldStart.Add(-time.Hour))
	first := f.CloudAt(42, -72, fieldStart)
	if before != first {
		t.Errorf("pre-span cloud %v != first step %v", before, first)
	}
	after := f.CloudAt(42, -72, fieldStart.Add(1000*time.Hour))
	last := f.CloudAt(42, -72, fieldStart.Add(47*time.Hour))
	if after != last {
		t.Errorf("post-span cloud %v != last step %v", after, last)
	}
}

// cloudAtReference is the per-instant cloud formula that recomputes every
// mode's spatial cosine at each instant. Point, CloudAt and CloudSeries
// must match it bit for bit.
func cloudAtReference(f *Field, latDeg, lonDeg float64, t time.Time) float64 {
	step := int(t.Sub(f.start) / f.cfg.TimeStep)
	if step < 0 {
		step = 0
	}
	if step >= f.steps {
		step = f.steps - 1
	}
	y := latDeg * 111.2
	x := lonDeg * 111.2 * math.Cos(f.refLat*math.Pi/180)
	var v float64
	for k := 0; k < f.cfg.Modes; k++ {
		v += f.amp[step][k] * math.Cos(f.freqX[k]*x+f.freqY[k]*y+f.phase[k])
	}
	v /= math.Sqrt(float64(f.cfg.Modes) / 2)
	cloud := f.cfg.MeanCloud + 0.35*v
	return math.Max(0, math.Min(1, cloud))
}

func TestPointMatchesReference(t *testing.T) {
	f := testField(t, 11, 72)
	for _, loc := range [][2]float64{{42, -72}, {35, -89}, {47.3, -71.25}, {-10, 150}} {
		lat, lon := loc[0], loc[1]
		series := f.CloudSeries(lat, lon)
		p := f.Point(lat, lon)
		for i, got := range series.Values {
			at := series.TimeAt(i)
			if want := cloudAtReference(f, lat, lon, at); got != want {
				t.Fatalf("(%v,%v) step %d: CloudSeries %v, reference %v", lat, lon, i, got, want)
			}
			mid := at.Add(37 * time.Minute)
			if got, want := p.Cloud(mid), cloudAtReference(f, lat, lon, mid); got != want {
				t.Fatalf("(%v,%v) %v: Point.Cloud %v, reference %v", lat, lon, mid, got, want)
			}
		}
		for _, at := range []time.Time{fieldStart.Add(-time.Hour), fieldStart.Add(1000 * time.Hour)} {
			if got, want := f.CloudAt(lat, lon, at), cloudAtReference(f, lat, lon, at); got != want {
				t.Fatalf("(%v,%v) %v: CloudAt %v, reference %v", lat, lon, at, got, want)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := testField(t, 7, 48).CloudSeries(40, -80)
	b := testField(t, 7, 48).CloudSeries(40, -80)
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatal("same seed produced different fields")
		}
	}
	c := testField(t, 8, 48).CloudSeries(40, -80)
	same := true
	for i := range a.Values {
		if a.Values[i] != c.Values[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical fields")
	}
}

func TestStationGrid(t *testing.T) {
	f := testField(t, 9, 24)
	st, err := StationGrid(f, 40, 41, -73, -72, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 9 { // 3 x 3
		t.Fatalf("got %d stations, want 9", len(st))
	}
	for _, s := range st {
		if s.Cloud.Len() != 24 {
			t.Errorf("station %s cloud len = %d", s.Name, s.Cloud.Len())
		}
	}
	if _, err := StationGrid(f, 41, 40, -73, -72, 0.5); !errors.Is(err, ErrBadConfig) {
		t.Errorf("inverted bounds error = %v", err)
	}
	if _, err := StationGrid(f, 40, 41, -73, -72, 0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero spacing error = %v", err)
	}
}

func TestNearestStation(t *testing.T) {
	f := testField(t, 10, 24)
	st, err := StationGrid(f, 40, 42, -74, -72, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, d, err := NearestStation(st, 40.9, -72.9)
	if err != nil {
		t.Fatal(err)
	}
	if got.Lat != 41 || got.Lon != -73 {
		t.Errorf("nearest = (%v, %v)", got.Lat, got.Lon)
	}
	if d <= 0 || d > 20 {
		t.Errorf("distance = %v km", d)
	}
	if _, _, err := NearestStation(nil, 0, 0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("empty stations error = %v", err)
	}
}
