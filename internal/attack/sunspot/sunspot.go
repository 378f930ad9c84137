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
	case c.Threshold <= 0 || c.Threshold >= 0.5:
		return fmt.Errorf("%w: threshold %v", ErrBadInput, c.Threshold)
	case c.MinPeakW < 0:
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
// key, so sharing a Model never changes an estimate. A Model is safe for
// concurrent use and holds memory for every key it has seen; it is meant
// to live as long as the world whose traces it localizes.
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
// one day's solar-term table (dayEphemeris). Each instant's
// tilt-independent sky terms are computed once and finished per tilt;
// sun.PlateSite.FromSky over a shared Sky is bit-identical to
// sun.PlateOutputEph at each tilt.
func computeModelWindows(eph []dayStep, lat, thresholdFrac float64) (out [len(modelTiltsDeg)]windowVal) {
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
