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
// the unhoisted sun.PlateOutputEph kernel; modelWindows must reproduce it
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

// TestModelWindowCacheCoherent checks the memoized forward model returns
// exactly the single-tilt reference model at every candidate tilt, for a
// spread of keys including polar days, on both the cold (miss) and warm
// (hit) paths.
func TestModelWindowCacheCoherent(t *testing.T) {
	resetModelWindowCache()
	defer resetModelWindowCache()

	dates := []time.Time{
		time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2017, 6, 21, 15, 30, 0, 0, time.UTC), // mid-day timestamp: truncated
		time.Date(2017, 12, 21, 0, 0, 0, 0, time.UTC),
	}
	for _, date := range dates {
		day := time.Date(date.Year(), date.Month(), date.Day(), 0, 0, 0, 0, time.UTC)
		for _, lat := range []float64{-70, -30, 0, 35.5, 42, 70} {
			for pass, label := range []string{"cold", "warm"} {
				got := modelWindows(date, lat, 0.03)
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

// TestLocalizeWarmColdIdentical runs Localize with an empty cache and again
// fully warm, and requires bit-identical estimates: memoization must not
// perturb the attack's output.
func TestLocalizeWarmColdIdentical(t *testing.T) {
	gen, err := solarsim.Generate(site(), nil, ssStart, 120, time.Minute, 11)
	if err != nil {
		t.Fatal(err)
	}
	resetModelWindowCache()
	defer resetModelWindowCache()
	cold, err := Localize(gen, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Localize(gen, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if cold != warm {
		t.Fatalf("cold estimate %+v != warm estimate %+v", cold, warm)
	}
}

// TestModelWindowCacheConcurrent hammers one key from several goroutines
// under the race detector; every caller must see the pure-function value,
// and the key must be computed exactly once.
func TestModelWindowCacheConcurrent(t *testing.T) {
	resetModelWindowCache()
	defer resetModelWindowCache()

	date := time.Date(2017, 3, 20, 0, 0, 0, 0, time.UTC)
	want := computeModelWindows(date, 42, 0.03)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := modelWindows(date, 42, 0.03); got != want {
					t.Errorf("got %+v, want %+v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := modelWindowComputes.Load(); n != 1 {
		t.Fatalf("one key computed %d times, want 1", n)
	}
}

// TestLocalizeConcurrentComputesEachKeyOnce localizes several sites that
// share their dates from concurrent goroutines, as Figure 5 does: the
// forward model must run exactly once per distinct (day, latitude) key,
// however the goroutines interleave.
func TestLocalizeConcurrentComputesEachKeyOnce(t *testing.T) {
	var gens []*timeseries.Series
	for i, lat := range []float64{36.5, 38, 42.4, 44.8} {
		s := site()
		s.Lat = lat
		s.TiltDeg = 18 + 4*float64(i)
		gen, err := solarsim.Generate(s, nil, ssStart, 60, time.Minute, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		gens = append(gens, gen, gen)
	}
	resetModelWindowCache()
	defer resetModelWindowCache()

	var wg sync.WaitGroup
	for _, gen := range gens {
		wg.Add(1)
		go func(gen *timeseries.Series) {
			defer wg.Done()
			if _, err := Localize(gen, DefaultConfig()); err != nil {
				t.Error(err)
			}
		}(gen)
	}
	wg.Wait()
	keys := modelWindowCacheLen()
	if keys == 0 || keys >= modelWindowCacheCap {
		t.Fatalf("%d distinct keys: want some, and below the cap %d", keys, modelWindowCacheCap)
	}
	if n := modelWindowComputes.Load(); n != int64(keys) {
		t.Fatalf("%d forward-model computes for %d distinct keys", n, keys)
	}
}

// TestModelWindowCacheBounded shrinks the cap and drives many distinct keys
// through the cached entry point: the cache must never exceed the cap, and
// every answer must still match the uncached model.
func TestModelWindowCacheBounded(t *testing.T) {
	oldCap := modelWindowCacheCap
	modelWindowCacheCap = 8
	resetModelWindowCache()
	defer func() {
		modelWindowCacheCap = oldCap
		resetModelWindowCache()
	}()

	date := time.Date(2017, 6, 21, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 50; i++ {
		lat := 20 + float64(i)*0.5
		want := computeModelWindows(date, lat, 0.03)
		if got := modelWindows(date, lat, 0.03); got != want {
			t.Fatalf("lat=%v: got %+v, want %+v", lat, got, want)
		}
		if n := modelWindowCacheLen(); n > modelWindowCacheCap {
			t.Fatalf("cache grew to %d entries, cap %d", n, modelWindowCacheCap)
		}
	}
}

// TestModelWindowCacheEvictionConcurrent drives distinct keys from several
// goroutines with a tiny cap so the clear-on-overflow path races against
// in-flight computes under the race detector.
func TestModelWindowCacheEvictionConcurrent(t *testing.T) {
	oldCap := modelWindowCacheCap
	modelWindowCacheCap = 4
	resetModelWindowCache()
	defer func() {
		modelWindowCacheCap = oldCap
		resetModelWindowCache()
	}()

	date := time.Date(2017, 3, 20, 0, 0, 0, 0, time.UTC)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				lat := 25 + float64((g*20+i)%10)
				for j, w := range modelWindows(date, lat, 0.03) {
					if !w.ok {
						t.Errorf("lat=%v tilt=%v: unexpectedly not ok", lat, modelTiltsDeg[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := modelWindowCacheLen(); n > modelWindowCacheCap {
		t.Fatalf("cache holds %d entries, cap %d", n, modelWindowCacheCap)
	}
}

// TestModelWindowCacheEviction fills the cache to its cap and checks the
// clear-on-overflow path still serves correct values afterwards.
func TestModelWindowCacheEviction(t *testing.T) {
	resetModelWindowCache()
	defer resetModelWindowCache()

	modelWindowCache.Lock()
	for i := 0; i < modelWindowCacheCap; i++ {
		modelWindowCache.m[windowKey{day: int64(i)}] = new(windowEntry)
	}
	modelWindowCache.Unlock()

	date := time.Date(2017, 6, 21, 0, 0, 0, 0, time.UTC)
	want := computeModelWindows(date, 42, 0.03)
	if got := modelWindows(date, 42, 0.03); got != want {
		t.Fatalf("post-eviction value %+v, want %+v", got, want)
	}
	if size := modelWindowCacheLen(); size != 1 {
		t.Fatalf("cache holds %d entries after overflow clear, want 1", size)
	}
}
