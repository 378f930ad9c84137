package sunspot

import (
	"math"
	"sync"
	"testing"
	"time"

	"privmem/internal/solarsim"
	"privmem/internal/sun"
	"privmem/internal/timeseries"
)

// windowLenReference is the single-tilt forward model evaluated through
// the unhoisted sun.PlateOutputEph kernel; Model.modelWindows must reproduce it
// bit for bit at every candidate tilt.
func windowLenReference(day time.Time, lat, tilt, thresholdFrac float64) (minutes float64, ok bool) {
	gen := make([]float64, modelSteps)
	peak := 0.0
	for i := range gen {
		t := day.Add(time.Duration(i*modelStepMin) * time.Minute)
		gen[i] = sun.PlateOutputEph(t, sun.EphemerisAt(t), lat, 0, tilt, modelAzimuthDeg, modelDiffuse)
		peak = math.Max(peak, gen[i])
	}
	if peak <= 0 {
		return 0, false
	}
	thr := thresholdFrac * peak
	first, last := -1, -1
	for i, v := range gen {
		if v > thr {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 || last <= first || (first == 0 && last == modelSteps-1) {
		return 0, false
	}
	return float64(last-first) * modelStepMin, true
}

// denseModelWindows is the forward model evaluated at every step of the
// day: each instant's Sky is computed once and finished per tilt, and each
// window is read off the full output series. computeModelWindows must
// return exactly its windows.
func denseModelWindows(eph []dayStep, lat, thresholdFrac float64) (out [len(modelTiltsDeg)]windowVal) {
	var sites [len(modelTiltsDeg)]sun.PlateSite
	for j, tilt := range modelTiltsDeg {
		sites[j] = sun.NewPlateSite(lat, 0, tilt, modelAzimuthDeg, modelDiffuse)
	}
	var gen [len(modelTiltsDeg)][modelSteps]float64
	var peak [len(modelTiltsDeg)]float64
	for i := range eph {
		sky := sites[0].Sky(eph[i].eph, eph[i].ha)
		for j := range sites {
			gen[j][i] = sites[j].FromSky(sky)
			peak[j] = max(peak[j], gen[j][i])
		}
	}
	for j := range out {
		out[j].minutes, out[j].ok = windowLen(&gen[j], peak[j], thresholdFrac)
	}
	return out
}

// windowLen is the length in minutes of the span where gen exceeds
// thresholdFrac of its peak; ok is false when there is no such span or it
// runs edge to edge (a polar day at lon=0).
func windowLen(gen *[modelSteps]float64, peak, thresholdFrac float64) (minutes float64, ok bool) {
	if peak <= 0 {
		return 0, false
	}
	thr := thresholdFrac * peak
	first, last := -1, -1
	for i, v := range gen {
		if v > thr {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 || last <= first {
		return 0, false
	}
	if first == 0 && last == modelSteps-1 {
		return 0, false
	}
	return float64(last-first) * modelStepMin, true
}

// checkDense fails t unless computeModelWindows equals the dense oracle
// on one key, at every tilt.
func checkDense(t testing.TB, eph []dayStep, day time.Time, lat, thr float64) {
	t.Helper()
	got, want := computeModelWindows(eph, lat, thr), denseModelWindows(eph, lat, thr)
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("day %s lat %v thr %v tilt %v: pruned %+v, dense %+v",
				day.Format("2006-01-02"), lat, thr, modelTiltsDeg[j], got[j], want[j])
		}
	}
}

// sweepKeys calls f for every (day, latitude) of a sweep over 2017: every
// dayStride-th day at latitudes from -89.5 to 89.5 in latStep steps, plus
// the equator and the polar circles, so that polar day and night, the
// equator and the southern hemisphere are all covered.
func sweepKeys(t *testing.T, f func(eph []dayStep, day time.Time, lat float64)) {
	dayStride, latStep := 7, 1.9
	if testing.Short() {
		dayStride, latStep = 15, 4.1
	}
	lats := []float64{0, 66.56, -66.56}
	for lat := -89.5; lat <= 89.5; lat += latStep {
		lats = append(lats, lat)
	}
	m := NewModel()
	for d := 0; d < 365; d += dayStride {
		day := ssStart.AddDate(0, 0, d)
		eph := m.dayEphemeris(day)
		for _, lat := range lats {
			f(eph, day, lat)
		}
	}
}

// TestModelWindowsMatchDense is the pruned kernel's law: over a year of
// days at latitudes from pole to pole and thresholds from 0.01 to just
// under the 0.5 limit, and over every key a 90-day Localize reads, it
// returns the dense oracle's windows exactly.
func TestModelWindowsMatchDense(t *testing.T) {
	sweepKeys(t, func(eph []dayStep, day time.Time, lat float64) {
		for _, thr := range []float64{0.01, 0.03, 0.2, 0.49} {
			checkDense(t, eph, day, lat, thr)
		}
	})

	gen, err := solarsim.Generate(site(), nil, ssStart, 90, time.Minute, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel()
	if _, err := m.Localize(gen, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	for k := range m.windows {
		day := time.Unix(k.day, 0).UTC()
		checkDense(t, m.dayEphemeris(day), day, k.lat, k.thr)
	}
}

// TestSkyBoundHolds checks the pruning bound itself at every step of the
// sweep: no tilt's plate output exceeds its bound-table entry. The
// windows law only sees steps that decide a peak or a crossing.
func TestSkyBoundHolds(t *testing.T) {
	bound := skyBound()
	minHeadroom := math.Inf(1)
	sweepKeys(t, func(eph []dayStep, day time.Time, lat float64) {
		var sites [len(modelTiltsDeg)]sun.PlateSite
		for j, tilt := range modelTiltsDeg {
			sites[j] = sun.NewPlateSite(lat, 0, tilt, modelAzimuthDeg, modelDiffuse)
		}
		sinLat, cosLat := math.Sin(lat*degToRad), math.Cos(lat*degToRad)
		for i := range eph {
			e := &eph[i]
			b := boundBin(sinLat*e.eph.SinDecl + cosLat*e.eph.CosDecl*e.ha.CosHA)
			sky := sites[0].Sky(e.eph, e.ha)
			for j := range sites {
				v := sites[j].FromSky(sky)
				if v > bound[j][b] {
					t.Fatalf("day %s lat %v step %d tilt %v: output %v above bound %v (bin %d)",
						day.Format("2006-01-02"), lat, i, modelTiltsDeg[j], v, bound[j][b], b)
				}
				if v > 0 {
					minHeadroom = min(minHeadroom, bound[j][b]/v-1)
				}
			}
		}
	})
	t.Logf("smallest relative headroom of the bound over a lit step: %.3g", minHeadroom)
}

// TestModelWindowCacheCoherent checks the forward model returns exactly
// the single-tilt reference model at every candidate tilt, for a spread of
// keys including polar days, on both the first (compute) and the repeated
// (kept) evaluation of each key.
func TestModelWindowCacheCoherent(t *testing.T) {
	m := NewModel()
	dates := []time.Time{
		time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2017, 6, 21, 15, 30, 0, 0, time.UTC), // mid-day timestamp: truncated
		time.Date(2017, 12, 21, 0, 0, 0, 0, time.UTC),
	}
	for _, date := range dates {
		day := time.Date(date.Year(), date.Month(), date.Day(), 0, 0, 0, 0, time.UTC)
		for _, lat := range []float64{-70, -30, 0, 35.5, 42, 70} {
			for pass, label := range []string{"cold", "warm"} {
				got := m.modelWindows(date, lat, 0.03)
				for j, tilt := range modelTiltsDeg {
					wantMin, wantOK := windowLenReference(day, lat, tilt, 0.03)
					if got[j].minutes != wantMin || got[j].ok != wantOK {
						t.Fatalf("%s pass %d lat=%v tilt=%v date=%v: got %+v, want (%v,%v)",
							label, pass, lat, tilt, date, got[j], wantMin, wantOK)
					}
				}
			}
		}
	}
}

// TestLocalizeWarmColdIdentical requires a shared Model to give estimates
// equal to a fresh Localize's: run twice over one trace, over several
// sites localized concurrently (as Figure 5 does), and over prefixes of one
// trace (as the telemetry-span ablation does).
func TestLocalizeWarmColdIdentical(t *testing.T) {
	fresh := func(t *testing.T, gen *timeseries.Series) Estimate {
		t.Helper()
		est, err := Localize(gen, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return est
	}

	gen, err := solarsim.Generate(site(), nil, ssStart, 120, time.Minute, 11)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel()
	for pass := 0; pass < 2; pass++ {
		got, err := m.Localize(gen, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if want := fresh(t, gen); got != want {
			t.Fatalf("shared-model pass %d estimate %+v != fresh estimate %+v", pass, got, want)
		}
	}

	t.Run("concurrent sites", func(t *testing.T) {
		gens := siteGens(t)
		got := localizeConcurrently(t, NewModel(), gens)
		for i, gen := range gens {
			if want := fresh(t, gen); got[i] != want {
				t.Errorf("site %d: shared-model estimate %+v != fresh estimate %+v", i, got[i], want)
			}
		}
	})

	t.Run("prefixes", func(t *testing.T) {
		m := NewModel()
		for _, days := range []int{30, 60, 120} {
			sub := gen.Slice(0, days*1440)
			got, err := m.Localize(sub, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if want := fresh(t, sub); got != want {
				t.Errorf("%d days: shared-model estimate %+v != fresh estimate %+v", days, got, want)
			}
		}
	})
}

// siteGens generates 60-day traces of four sites that share their dates
// but differ in latitude and tilt.
func siteGens(t *testing.T) []*timeseries.Series {
	t.Helper()
	var gens []*timeseries.Series
	for i, lat := range []float64{36.5, 38, 42.4, 44.8} {
		s := site()
		s.Lat = lat
		s.TiltDeg = 18 + 4*float64(i)
		gen, err := solarsim.Generate(s, nil, ssStart, 60, time.Minute, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		gens = append(gens, gen)
	}
	return gens
}

// localizeConcurrently localizes every trace through m, one goroutine each.
func localizeConcurrently(t *testing.T, m *Model, gens []*timeseries.Series) []Estimate {
	t.Helper()
	ests := make([]Estimate, len(gens))
	var wg sync.WaitGroup
	for i, gen := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			est, err := m.Localize(gen, DefaultConfig())
			if err != nil {
				t.Error(err)
			}
			ests[i] = est
		}()
	}
	wg.Wait()
	return ests
}

// TestModelWindowCacheConcurrent hammers one key of one Model from several
// goroutines under the race detector; every caller must see the
// pure-function value, and the key must be computed exactly once.
func TestModelWindowCacheConcurrent(t *testing.T) {
	m := NewModel()
	date := time.Date(2017, 3, 20, 0, 0, 0, 0, time.UTC)
	want := computeModelWindows(NewModel().dayEphemeris(date), 42, 0.03)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := m.modelWindows(date, 42, 0.03); got != want {
					t.Errorf("got %+v, want %+v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := m.computes.Load(); n != 1 {
		t.Fatalf("one key computed %d times, want 1", n)
	}
}

// TestLocalizeConcurrentComputesEachKeyOnce localizes several sites that
// share their dates through one Model from concurrent goroutines, each
// site twice, as Figure 5 does: the forward model must run exactly once
// per distinct (day, latitude) key, however the goroutines interleave.
func TestLocalizeConcurrentComputesEachKeyOnce(t *testing.T) {
	gens := siteGens(t)
	m := NewModel()
	localizeConcurrently(t, m, append(gens, gens...))
	keys := len(m.windows)
	if keys == 0 {
		t.Fatal("no forward-model keys evaluated")
	}
	if n := m.computes.Load(); n != int64(keys) {
		t.Fatalf("%d forward-model computes for %d distinct keys", n, keys)
	}
}
