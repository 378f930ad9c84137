// Package sunspot implements the SunSpot localization attack [4]: recovering
// the location of an "anonymous" solar-powered home from nothing but its
// generation time series. Generation reveals when the sun rises and sets
// (generation starts and stops) and when it peaks (solar noon); those times
// are governed by latitude and longitude (package sun), so aggregating
// noisy per-day estimates over many days localizes the site.
package sunspot

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"privmem/internal/par"
	"privmem/internal/stats"
	"privmem/internal/sun"
	"privmem/internal/timeseries"
)

// ErrBadInput indicates an unusable generation trace.
var ErrBadInput = errors.New("sunspot: invalid input")

// Config parameterizes the attack.
type Config struct {
	// Threshold is the fraction of a day's peak generation that marks
	// production start/stop (default 0.03).
	Threshold float64
	// MinPeakW skips days whose peak generation is below this (deeply
	// overcast days carry almost no sunrise signal; default 200 W).
	MinPeakW float64
	// MinDays is the minimum number of usable days (default 10).
	MinDays int
}

// DefaultConfig returns the attack configuration used in the experiments.
func DefaultConfig() Config {
	return Config{Threshold: 0.03, MinPeakW: 200, MinDays: 10}
}

func (c *Config) withDefaults() Config {
	out := *c
	d := DefaultConfig()
	if out.Threshold == 0 {
		out.Threshold = d.Threshold
	}
	if out.MinPeakW == 0 {
		out.MinPeakW = d.MinPeakW
	}
	if out.MinDays == 0 {
		out.MinDays = d.MinDays
	}
	return out
}

func (c *Config) validate() error {
	switch {
	case math.IsNaN(c.Threshold) || c.Threshold <= 0 || c.Threshold >= 0.5:
		return fmt.Errorf("%w: threshold %v", ErrBadInput, c.Threshold)
	case math.IsNaN(c.MinPeakW) || math.IsInf(c.MinPeakW, 0) || c.MinPeakW < 0:
		return fmt.Errorf("%w: min peak %v W", ErrBadInput, c.MinPeakW)
	case c.MinDays < 1:
		return fmt.Errorf("%w: min days %d", ErrBadInput, c.MinDays)
	}
	return nil
}

// Estimate is a recovered site location.
type Estimate struct {
	// Lat and Lon are the inferred coordinates in degrees.
	Lat, Lon float64
	// DaysUsed counts the per-day estimates aggregated.
	DaysUsed int
}

// dayAnchor holds one day's extracted solar timing.
type dayAnchor struct {
	date                  time.Time
	sunriseMin, sunsetMin float64
}

// Localize runs SunSpot on a generation trace (any uniform step; UTC
// timestamps) and returns the inferred location, through a fresh Model.
func Localize(gen *timeseries.Series, cfg Config) (Estimate, error) {
	return NewModel().Localize(gen, cfg)
}

// Localize runs SunSpot on a generation trace through m's forward model.
// Estimates are identical to the package-level Localize: m only saves
// recomputing windows another trace over the same days already needed.
func (m *Model) Localize(gen *timeseries.Series, cfg Config) (Estimate, error) {
	cfg = cfg.withDefaults()
	var est Estimate
	if err := cfg.validate(); err != nil {
		return est, err
	}
	if gen == nil || gen.Step <= 0 {
		return est, fmt.Errorf("%w: no trace, or a non-positive step", ErrBadInput)
	}
	perDay := int(24 * time.Hour / gen.Step)
	if perDay < 24 || gen.Len() < perDay {
		return est, fmt.Errorf("%w: need at least one day at <= 1 h resolution", ErrBadInput)
	}

	anchors := extractAnchors(gen, cfg)
	if len(anchors) < cfg.MinDays {
		return est, fmt.Errorf("%w: only %d usable days (need %d)",
			ErrBadInput, len(anchors), cfg.MinDays)
	}

	// Longitude: the midpoint of the production window tracks solar noon
	// (the dawn/dusk threshold lag is symmetric and cancels), and solar
	// noon plus the equation of time yields longitude directly.
	lons := make([]float64, 0, len(anchors))
	for _, a := range anchors {
		noonMin := (a.sunriseMin + a.sunsetMin) / 2
		eq := sun.EquationOfTime(a.date.Add(12 * time.Hour))
		lons = append(lons, (720-eq-noonMin)/4)
	}
	est.Lon = stats.Median(lons)

	// Latitude: a single day's window length cannot separate latitude from
	// the site's unknown panel geometry (both stretch the curve), but the
	// *seasonal trend* of the window length depends only on latitude while
	// the geometry offset is nearly constant. Fit (latitude, constant
	// offset) jointly against the modeled windows across all usable days.
	lat, err := m.fitLatitude(anchors, cfg)
	if err != nil {
		return est, err
	}
	est.Lat = lat
	est.DaysUsed = len(anchors)
	return est, nil
}

// fitLatitude fits the latitude whose modeled seasonal window-length trend
// best matches the observations, allowing a constant per-site offset (the
// signature of unknown tilt/azimuth). The offset is the robust median
// residual; the fit minimizes the median absolute deviation around it.
func (m *Model) fitLatitude(anchors []dayAnchor, cfg Config) (float64, error) {
	// Thin to at most maxFitDates evenly spaced days: the model evaluation
	// dominates cost, and evenly spaced days preserve the seasonal span.
	const maxFitDates = 30
	if stride := (len(anchors) + maxFitDates - 1) / maxFitDates; stride > 1 {
		thinned := make([]dayAnchor, 0, maxFitDates)
		for i := 0; i < len(anchors); i += stride {
			thinned = append(thinned, anchors[i])
		}
		anchors = thinned
	}
	obs := make([]float64, len(anchors))
	for i, a := range anchors {
		obs[i] = a.sunsetMin - a.sunriseMin
	}
	score := func(lat float64, tilt int) (float64, bool) {
		resid := make([]float64, 0, len(anchors))
		for i, a := range anchors {
			w := m.modelWindows(a.date, lat, cfg.Threshold)[tilt]
			if !w.ok {
				continue
			}
			resid = append(resid, obs[i]-w.minutes)
		}
		if len(resid) < cfg.MinDays {
			return 0, false
		}
		offset := stats.Median(resid)
		var sse float64
		for _, r := range resid {
			d := r - offset
			sse += d * d
		}
		return sse / float64(len(resid)), true
	}
	// warm evaluates the forward model at every (date, lat) key the next
	// scores read, spread over the cores. Scoring then runs serially over
	// model hits in a fixed order, so the fit does not depend on which
	// goroutine computed a key.
	warm := func(lats ...float64) {
		_ = par.For(len(lats)*len(anchors), func(k int) error {
			m.modelWindows(anchors[k%len(anchors)].date, lats[k/len(anchors)], cfg.Threshold)
			return nil
		})
	}
	// The seasonal trend identifies latitude; the unknown tilt bends the
	// trend too, so fit it jointly from a small candidate set.
	bestLat, bestTilt, bestS := 0.0, 0, math.Inf(1)
	const lo, hi, coarse = -60.0, 60.0, 2.0
	var grid []float64
	for lat := lo; lat <= hi; lat += coarse {
		grid = append(grid, lat)
	}
	warm(grid...)
	for tilt := range modelTiltsDeg {
		for _, lat := range grid {
			if s, ok := score(lat, tilt); ok && s < bestS {
				bestLat, bestTilt, bestS = lat, tilt, s
			}
		}
	}
	if math.IsInf(bestS, 1) {
		return 0, fmt.Errorf("%w: latitude fit found no valid model days", ErrBadInput)
	}
	a, b := bestLat-coarse, bestLat+coarse
	for i := 0; i < 24; i++ {
		m1 := a + (b-a)*0.382
		m2 := a + (b-a)*0.618
		warm(m1, m2)
		s1, ok1 := score(m1, bestTilt)
		s2, ok2 := score(m2, bestTilt)
		if !ok1 || !ok2 {
			break
		}
		if s1 < s2 {
			b = m2
		} else {
			a = m1
		}
	}
	return (a + b) / 2, nil
}

// Assumed reference panel for the attacker's forward model: SunSpot does not
// know a site's true geometry, so it models a south-facing rooftop and fits
// the tilt from a small candidate set.
const (
	modelAzimuthDeg = 180.0
	modelDiffuse    = 0.16
)

// modelTiltsDeg are the candidate panel tilts fitLatitude fits jointly
// with latitude; the forward model evaluates all of them in one pass.
var modelTiltsDeg = [...]float64{18, 25, 32}

// modelStepMin is the forward model's evaluation cadence in minutes; each
// day's solar-term table is laid out at the same cadence.
const modelStepMin = 3

// modelSteps is the number of forward-model instants per day.
const modelSteps = 24 * 60 / modelStepMin

// windowKey identifies one forward-model evaluation. The date is reduced to
// its UTC day, matching modelWindows' own truncation.
type windowKey struct {
	day      int64
	lat, thr float64
}

// windowVal is one tilt's modeled production window.
type windowVal struct {
	minutes float64
	ok      bool
}

// windowEntry is one key's windows, computed exactly once.
type windowEntry struct {
	once sync.Once
	v    [len(modelTiltsDeg)]windowVal
}

// dayStep is one model-grid instant's location-independent solar terms:
// the declination trigonometry plus the hour angle at the model longitude
// (the forward model always probes at lon=0 — longitude only shifts the
// window, never its length).
type dayStep struct {
	eph sun.TrigEphemeris
	ha  sun.HourAngle
}

// dayEntry is one UTC day's solar-term table, computed exactly once.
type dayEntry struct {
	once  sync.Once
	steps []dayStep
}

// Model is SunSpot's clear-sky forward model with its evaluations kept.
// The latitude fit re-evaluates the same (day, latitude) keys for every
// site over the same season, so one Model shared by the traces of one
// world computes each key once. Every value is a pure function of its
// key, so sharing a Model never changes an estimate. A key's windows cost
// only the instants that can set a peak or a threshold crossing
// (computeModelWindows); the output-bound table that picks them is built
// once per process, on the first key any Model computes. A Model is safe
// for concurrent use and holds memory for every key it has seen; it is
// meant to live as long as the world whose traces it localizes.
type Model struct {
	mu      sync.Mutex
	windows map[windowKey]*windowEntry
	days    map[int64]*dayEntry
	// computes counts forward-model evaluations (tests).
	computes atomic.Int64
}

// NewModel returns an empty forward model.
func NewModel() *Model {
	return &Model{
		windows: make(map[windowKey]*windowEntry),
		days:    make(map[int64]*dayEntry),
	}
}

// modelWindows returns the modeled production windows of a clear-sky,
// south-facing reference panel at the given latitude and date, one per
// candidate tilt in modelTiltsDeg, using the same fractional threshold as
// the attack. A window's ok is false on polar days. Each key is computed
// once per Model; concurrent callers of one key share that compute.
func (m *Model) modelWindows(date time.Time, lat, thresholdFrac float64) [len(modelTiltsDeg)]windowVal {
	day := time.Date(date.Year(), date.Month(), date.Day(), 0, 0, 0, 0, time.UTC)
	k := windowKey{day: day.Unix(), lat: lat, thr: thresholdFrac}
	m.mu.Lock()
	e := m.windows[k]
	if e == nil {
		e = new(windowEntry)
		m.windows[k] = e
	}
	m.mu.Unlock()
	e.once.Do(func() {
		m.computes.Add(1)
		e.v = computeModelWindows(m.dayEphemeris(day), lat, thresholdFrac)
	})
	return e.v
}

// dayEphemeris returns day's solar-term table at modelStepMin cadence; day
// must already be truncated to UTC midnight. The latitude fit evaluates
// the same dates for every probed latitude, so the trigonometry that does
// not depend on the candidate latitude is computed once per day.
func (m *Model) dayEphemeris(day time.Time) []dayStep {
	key := day.Unix()
	m.mu.Lock()
	e := m.days[key]
	if e == nil {
		e = new(dayEntry)
		m.days[key] = e
	}
	m.mu.Unlock()
	e.once.Do(func() {
		e.steps = make([]dayStep, modelSteps)
		for i := range e.steps {
			t := day.Add(time.Duration(i*modelStepMin) * time.Minute)
			te := sun.EphemerisAt(t).Trig()
			e.steps[i] = dayStep{eph: te, ha: sun.HourAngleAt(t, te, 0)}
		}
	})
	return e.steps
}

// computeModelWindows is the forward model for every candidate tilt over
// one day's solar-term table (dayEphemeris). A window reads only each
// tilt's peak and the first and last step above thresholdFrac of it, so
// the kernel evaluates sun.PlateSite.Sky only at the steps that can set
// one of those: outward from the highest-sun step until no remaining
// step's output bound (skyBound) can reach any tilt's running peak, and
// then inward from each edge up to the first step above the threshold,
// skipping steps whose bound is at most the threshold. The peak is the
// maximum over every step and each crossing is the first or last step
// above the threshold, exactly as a dense evaluation of all modelSteps
// instants finds them, so the windows are bit-identical to it (pinned
// against the dense oracle in model_test.go). Each evaluated instant's
// tilt-independent Sky is computed once and finished per tilt;
// sun.PlateSite.FromSky over a shared Sky is bit-identical to
// sun.PlateOutputEph at each tilt.
func computeModelWindows(eph []dayStep, lat, thresholdFrac float64) (out [len(modelTiltsDeg)]windowVal) {
	var k windowKernel
	for j, tilt := range modelTiltsDeg {
		k.sites[j] = sun.NewPlateSite(lat, 0, tilt, modelAzimuthDeg, modelDiffuse)
	}
	k.eph, k.bound = eph, skyBound()

	// The cosine of the zenith angle is Sky's first product; its bin
	// bounds the step's output at every tilt.
	sinLat, cosLat := math.Sin(lat*degToRad), math.Cos(lat*degToRad)
	var pre, suf [modelSteps]uint16 // running max of bin from each edge
	top, topCZ := 0, math.Inf(-1)
	for i := range eph {
		e := &eph[i]
		cz := sinLat*e.eph.SinDecl + cosLat*e.eph.CosDecl*e.ha.CosHA
		k.bin[i] = boundBin(cz)
		if cz > topCZ {
			top, topCZ = i, cz
		}
		pre[i] = k.bin[i]
		if i > 0 {
			pre[i] = max(pre[i], pre[i-1])
		}
	}
	for i := modelSteps - 1; i >= 0; i-- {
		suf[i] = k.bin[i]
		if i < modelSteps-1 {
			suf[i] = max(suf[i], suf[i+1])
		}
	}

	// Peak: every step at or left of l has a bin of at most pre[l], so
	// once no tilt's bound at pre[l] exceeds its running peak, none of
	// them can raise a peak; likewise right of r with suf[r].
	k.eval(top)
	for l := top - 1; l >= 0 && k.raisesPeak(pre[l]); l-- {
		k.eval(l)
	}
	for r := top + 1; r < modelSteps && k.raisesPeak(suf[r]); r++ {
		k.eval(r)
	}

	for j := range out {
		if k.peak[j] <= 0 {
			continue
		}
		thr := thresholdFrac * k.peak[j]
		first := k.crossing(j, thr, 0, 1)
		last := k.crossing(j, thr, modelSteps-1, -1)
		if first < 0 || last <= first || (first == 0 && last == modelSteps-1) {
			continue
		}
		out[j] = windowVal{minutes: float64(last-first) * modelStepMin, ok: true}
	}
	return out
}

// windowKernel is computeModelWindows' per-key state: the plate output of
// every evaluated step at each tilt, kept on the caller's stack.
type windowKernel struct {
	sites [len(modelTiltsDeg)]sun.PlateSite
	eph   []dayStep
	bound *skyBoundTable
	bin   [modelSteps]uint16
	done  [modelSteps]bool
	gen   [len(modelTiltsDeg)][modelSteps]float64
	peak  [len(modelTiltsDeg)]float64
}

// eval computes step i's output at every tilt, once, and folds it into
// the running peaks.
func (k *windowKernel) eval(i int) {
	if k.done[i] {
		return
	}
	k.done[i] = true
	sky := k.sites[0].Sky(k.eph[i].eph, k.eph[i].ha)
	for j := range k.sites {
		k.gen[j][i] = k.sites[j].FromSky(sky)
		k.peak[j] = max(k.peak[j], k.gen[j][i])
	}
}

// raisesPeak reports whether a step in bin b may output more than the
// running peak at some tilt.
func (k *windowKernel) raisesPeak(b uint16) bool {
	for j, p := range k.peak {
		if k.bound[j][b] > p {
			return true
		}
	}
	return false
}

// crossing returns the first step above thr at tilt j, scanning from step
// from in direction dir (+1 or -1), or -1 if there is none; a step whose
// bound is at most thr cannot be above it and is skipped unevaluated.
func (k *windowKernel) crossing(j int, thr float64, from, dir int) int {
	for i := from; i >= 0 && i < modelSteps; i += dir {
		if k.bound[j][k.bin[i]] <= thr {
			continue
		}
		k.eval(i)
		if k.gen[j][i] > thr {
			return i
		}
	}
	return -1
}

// Output bound. At an instant with zenith angle zen, sun.PlateSite.Sky
// and FromSky give
//
//	ghi·(d·skyView) + (1−d)·ghi·min(3, max(0, cosInc)/max(0.03, cos zen))
//
// with d = modelDiffuse, ghi = 1353·0.7^(AM^0.678)·cos zen and
// AM = 1/(cos zen + 0.50572·(96.07995−zen)^−1.6364). Since the relative
// azimuth's cosine is at most 1, cosInc ≤ cos(zen−tilt), which is at most
// c = 1 when zen ≤ tilt; and cos zen/max(0.03, cos zen) ≤ 1. So over a bin
// of cos zen ∈ [lo, hi], with zen ∈ [acos hi, acos lo], the output is at
// most
//
//	1353·0.7^(AMmin^0.678)·(d·skyView·hi + (1−d)·c(acos hi))
//
// where AMmin = 1/(hi + 0.50572·(96.07995−acos lo)^−1.6364) takes each
// term of the denominator at its own largest value over the bin (the
// air-mass formula is not monotone in zen within a hundredth of a degree
// of the zenith). Each entry is raised by boundSlack to cover the ulp-level
// gap between this float chain and Sky's, and the table is made
// non-decreasing in the bin, which the prefix and suffix maxima of
// computeModelWindows rely on.
const (
	// skyBoundBins is the number of cos-zenith bins; a power of two, so
	// cz·skyBoundBins and the bin edges k/skyBoundBins are exact.
	skyBoundBins = 1024
	// boundMargin widens each bin on both sides: computeModelWindows
	// recomputes Sky's zenith cosine, which may differ from Sky's own in
	// the last few bits (the compiler may fuse a multiply-add).
	boundMargin = 1e-12
	// boundSlack is the relative headroom of every table entry.
	boundSlack = 1e-9
	// darkCosZen: at a zenith cosine this far below zero Sky's zenith
	// angle is past 90°, so the output is 0 at every tilt.
	darkCosZen = -1e-6

	degToRad = math.Pi / 180
	radToDeg = 180 / math.Pi
)

// skyBoundTable holds each tilt's output bound per bin. Bin 0 is the
// dark bin (bound 0); bin b ≥ 1 covers cos zen ∈ [(b−1)/n, b/n] widened
// by boundMargin, with n = skyBoundBins.
type skyBoundTable [len(modelTiltsDeg)][skyBoundBins + 1]float64

// skyBound builds the table on first use, once per process: 1,024 bins of
// three Pow and two Acos calls, about 0.3 ms on one core. At package init
// every binary linking the package would pay it.
var skyBound = sync.OnceValue(func() *skyBoundTable {
	t := new(skyBoundTable)
	for b := 1; b <= skyBoundBins; b++ {
		hi := float64(b) / skyBoundBins
		lo := float64(b-1)/skyBoundBins - 2*boundMargin
		zenLo := math.Acos(hi) * radToDeg
		zenHi := math.Acos(lo) * radToDeg
		amMin := 1 / (hi + 0.50572*math.Pow(96.07995-zenHi, -1.6364))
		clearSky := 1353 * math.Pow(0.7, math.Pow(amMin, 0.678))
		for j, tilt := range modelTiltsDeg {
			c := 1.0
			if zenLo > tilt {
				c = math.Cos((zenLo - tilt) * degToRad)
			}
			skyView := (1 + math.Cos(tilt*degToRad)) / 2
			u := clearSky * (modelDiffuse*skyView*hi + (1-modelDiffuse)*c) * (1 + boundSlack)
			t[j][b] = max(u, t[j][b-1])
		}
	}
	return t
})

// boundBin returns the bound-table bin of a step whose zenith cosine, as
// computeModelWindows recomputes it, is cz.
func boundBin(cz float64) uint16 {
	if cz <= darkCosZen {
		return 0
	}
	cz = max(0, cz+boundMargin)
	return uint16(min(int(cz*skyBoundBins), skyBoundBins-1) + 1)
}

// extractAnchors pulls per-solar-day production start/stop times from the
// trace. Solar days are located as contiguous production runs rather than
// UTC calendar days: depending on longitude a solar day may straddle UTC
// midnight, and slicing by calendar day would corrupt its edges.
func extractAnchors(gen *timeseries.Series, cfg Config) []dayAnchor {
	var anchors []dayAnchor
	globalPeak := gen.Max()
	if globalPeak <= 0 {
		return nil
	}
	floor := 0.005 * globalPeak
	stepMin := gen.Step.Minutes()
	n := gen.Len()

	i := 0
	for i < n {
		// Find the next production run above the noise floor.
		for i < n && gen.Values[i] <= floor {
			i++
		}
		if i >= n {
			break
		}
		start := i
		for i < n && gen.Values[i] > floor {
			i++
		}
		end := i // [start, end) above floor

		runPeak := 0.0
		for j := start; j < end; j++ {
			runPeak = max(runPeak, gen.Values[j])
		}
		runLenH := float64(end-start) * stepMin / 60
		if runPeak < cfg.MinPeakW || runLenH < 4 || runLenH > 20 ||
			start == 0 || end == n {
			continue
		}
		// Threshold crossings relative to the run's own peak, with
		// sub-sample interpolation.
		thr := cfg.Threshold * runPeak
		first, last := -1, -1
		for j := start; j < end; j++ {
			if gen.Values[j] > thr {
				if first < 0 {
					first = j
				}
				last = j
			}
		}
		if first <= 0 || last >= n-1 || last <= first {
			continue
		}
		rise := float64(first) - interpFrac(gen.Values[first-1], gen.Values[first], thr)
		set := float64(last) + interpFrac(gen.Values[last+1], gen.Values[last], thr)

		// Express times as minutes after midnight UTC of the run-start
		// date; sunset past midnight simply exceeds 1440.
		startTime := gen.TimeAt(first)
		date := time.Date(startTime.Year(), startTime.Month(), startTime.Day(), 0, 0, 0, 0, time.UTC)
		baseMin := date.Sub(gen.Start).Minutes()
		anchors = append(anchors, dayAnchor{
			date:       date,
			sunriseMin: rise*stepMin - baseMin,
			sunsetMin:  set*stepMin - baseMin,
		})
	}
	return anchors
}

// interpFrac returns how far (in samples, 0..1) the threshold crossing sits
// beyond the inner sample toward the outer one.
func interpFrac(outer, inner, thr float64) float64 {
	if inner <= outer {
		return 0
	}
	f := (inner - thr) / (inner - outer)
	return max(0, min(1, f))
}
