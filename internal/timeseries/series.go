// Package timeseries provides the uniform time-series representation used
// throughout privmem for power, occupancy, generation, and traffic traces.
//
// A Series is a uniformly-sampled sequence of float64 values anchored at a
// start time with a fixed step. All analytics in the repository (NIOM, NILM,
// solar localization, obfuscation defenses) operate on Series values, so the
// package also provides the resampling, alignment, and windowed-statistics
// primitives those analytics share.
package timeseries

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// Common errors returned by Series operations.
var (
	// ErrStepMismatch indicates two series with different sample steps were
	// combined without resampling.
	ErrStepMismatch = errors.New("timeseries: step mismatch")
	// ErrBadStep indicates a non-positive sampling step.
	ErrBadStep = errors.New("timeseries: step must be positive")
)

// Series is a uniformly sampled time series. The i-th sample covers the
// half-open interval [Start + i*Step, Start + (i+1)*Step).
//
// The zero value is an empty series; use New to construct a series with
// validated parameters.
type Series struct {
	// Start is the timestamp of the first sample.
	Start time.Time
	// Step is the sampling interval. It must be positive.
	Step time.Duration
	// Values holds one sample per step.
	Values []float64
}

// New returns a zero-filled series of n samples starting at start with the
// given step.
func New(start time.Time, step time.Duration, n int) (*Series, error) {
	if step <= 0 {
		return nil, fmt.Errorf("new series: %w", ErrBadStep)
	}
	if n < 0 {
		return nil, fmt.Errorf("new series: negative length %d", n)
	}
	return &Series{Start: start, Step: step, Values: make([]float64, n)}, nil
}

// MustNew is like New but panics on invalid parameters. It is intended for
// tests and for static configurations that cannot fail at runtime.
func MustNew(start time.Time, step time.Duration, n int) *Series {
	s, err := New(start, step, n)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// End returns the timestamp one step past the last sample, i.e. the
// exclusive end of the series' coverage.
func (s *Series) End() time.Time {
	return s.Start.Add(time.Duration(len(s.Values)) * s.Step)
}

// TimeAt returns the timestamp of sample i.
func (s *Series) TimeAt(i int) time.Time {
	return s.Start.Add(time.Duration(i) * s.Step)
}

// IndexOf returns the sample index covering t, which may be out of range if
// t falls outside the series. The division floors: a t anywhere inside
// [Start + i*Step, Start + (i+1)*Step) maps to i, so pre-start timestamps
// map to negative indexes rather than being truncated toward index 0.
func (s *Series) IndexOf(t time.Time) int {
	if s.Step <= 0 {
		return -1
	}
	d := t.Sub(s.Start)
	i := d / s.Step
	if d < 0 && d%s.Step != 0 {
		i--
	}
	return int(i)
}

// At returns the value of the sample covering t, or 0 if t is outside the
// series.
func (s *Series) At(t time.Time) float64 {
	i := s.IndexOf(t)
	if i < 0 || i >= len(s.Values) {
		return 0
	}
	return s.Values[i]
}

// Clone returns a deep copy of the series.
func (s *Series) Clone() *Series {
	out := &Series{Start: s.Start, Step: s.Step, Values: make([]float64, len(s.Values))}
	copy(out.Values, s.Values)
	return out
}

// Slice returns a view-copy of samples [i, j). Indexes are clamped to the
// valid range, so a fully out-of-range request returns an empty series.
func (s *Series) Slice(i, j int) *Series {
	i = max(0, min(i, len(s.Values)))
	j = max(i, min(j, len(s.Values)))
	out := &Series{Start: s.TimeAt(i), Step: s.Step, Values: make([]float64, j-i)}
	copy(out.Values, s.Values[i:j])
	return out
}

// Window returns the sub-series covering [from, to).
func (s *Series) Window(from, to time.Time) *Series {
	return s.Slice(s.IndexOf(from), s.IndexOf(to))
}

// Add returns s + o sample-wise. Both series must share the same step and
// start; the result has the length of the shorter input.
func (s *Series) Add(o *Series) (*Series, error) {
	return s.combine(o, func(a, b float64) float64 { return a + b })
}

// Sub returns s - o sample-wise, with the same alignment rules as Add.
func (s *Series) Sub(o *Series) (*Series, error) {
	return s.combine(o, func(a, b float64) float64 { return a - b })
}

func (s *Series) combine(o *Series, f func(a, b float64) float64) (*Series, error) {
	if s.Step != o.Step {
		return nil, fmt.Errorf("combine %v with %v: %w", s.Step, o.Step, ErrStepMismatch)
	}
	if !s.Start.Equal(o.Start) {
		return nil, fmt.Errorf("combine: starts differ (%v vs %v)", s.Start, o.Start)
	}
	n := min(len(s.Values), len(o.Values))
	out := &Series{Start: s.Start, Step: s.Step, Values: make([]float64, n)}
	for i := 0; i < n; i++ {
		out.Values[i] = f(s.Values[i], o.Values[i])
	}
	return out, nil
}

// AddInPlace accumulates o into s, sample-wise, over the overlapping range.
// Unlike Add it tolerates differing starts as long as the steps match and o
// is step-aligned with s.
func (s *Series) AddInPlace(o *Series) error {
	if s.Step != o.Step {
		return fmt.Errorf("add in place: %w", ErrStepMismatch)
	}
	off := int(o.Start.Sub(s.Start) / s.Step)
	for i, v := range o.Values {
		j := i + off
		if j >= 0 && j < len(s.Values) {
			s.Values[j] += v
		}
	}
	return nil
}

// Scale multiplies every sample by k and returns s for chaining.
func (s *Series) Scale(k float64) *Series {
	for i := range s.Values {
		s.Values[i] *= k
	}
	return s
}

// Clamp limits every sample to [lo, hi] and returns s for chaining.
func (s *Series) Clamp(lo, hi float64) *Series {
	for i, v := range s.Values {
		s.Values[i] = max(lo, min(hi, v))
	}
	return s
}

// Map replaces every sample x with f(x) and returns s for chaining.
func (s *Series) Map(f func(float64) float64) *Series {
	for i, v := range s.Values {
		s.Values[i] = f(v)
	}
	return s
}

// Sum returns the sum of all samples.
func (s *Series) Sum() float64 {
	var t float64
	for _, v := range s.Values {
		t += v
	}
	return t
}

// Mean returns the arithmetic mean, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	return s.Sum() / float64(len(s.Values))
}

// Max returns the maximum sample, or 0 for an empty series.
func (s *Series) Max() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		m = max(m, v)
	}
	return m
}

// Min returns the minimum sample, or 0 for an empty series.
func (s *Series) Min() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		m = min(m, v)
	}
	return m
}

// Variance returns the population variance, or 0 for an empty series.
func (s *Series) Variance() float64 {
	n := len(s.Values)
	if n == 0 {
		return 0
	}
	mean := s.Mean()
	var ss float64
	for _, v := range s.Values {
		d := v - mean
		ss += d * d
	}
	return ss / float64(n)
}

// Std returns the population standard deviation.
func (s *Series) Std() float64 { return math.Sqrt(s.Variance()) }

// Energy integrates the series over time. For a power series in watts the
// result is watt-hours.
func (s *Series) Energy() float64 {
	return s.Sum() * s.Step.Hours()
}

// Resample returns the series re-sampled to the given step by averaging
// (when coarsening) or by sample-and-hold (when refining). The new step must
// be a positive multiple or divisor of the current step.
//
// When the length is not a multiple of the coarsening factor, the trailing
// samples form a partial bucket that is still emitted: it is averaged over
// the full output step, with the uncovered remainder counting as zero.
// That choice makes coarsening conserve Energy() exactly — no samples are
// dropped and no phantom energy is invented — at the cost of the final
// bucket understating mean power for the portion it actually covers.
func (s *Series) Resample(step time.Duration) (*Series, error) {
	if step <= 0 {
		return nil, fmt.Errorf("resample: %w", ErrBadStep)
	}
	if step == s.Step {
		return s.Clone(), nil
	}
	if step > s.Step {
		if step%s.Step != 0 {
			return nil, fmt.Errorf("resample %v to %v: not a multiple: %w", s.Step, step, ErrStepMismatch)
		}
		k := int(step / s.Step)
		n := (len(s.Values) + k - 1) / k
		out := &Series{Start: s.Start, Step: step, Values: make([]float64, n)}
		for i := 0; i < n; i++ {
			lo := i * k
			hi := min(lo+k, len(s.Values))
			var sum float64
			for j := lo; j < hi; j++ {
				sum += s.Values[j]
			}
			// Divide by the full bucket width even for a partial tail; see
			// the energy-conservation contract in the doc comment.
			out.Values[i] = sum / float64(k)
		}
		return out, nil
	}
	if s.Step%step != 0 {
		return nil, fmt.Errorf("resample %v to %v: not a divisor: %w", s.Step, step, ErrStepMismatch)
	}
	k := int(s.Step / step)
	out := &Series{Start: s.Start, Step: step, Values: make([]float64, len(s.Values)*k)}
	for i, v := range s.Values {
		for j := 0; j < k; j++ {
			out.Values[i*k+j] = v
		}
	}
	return out, nil
}

// Diff returns the first difference series d[i] = s[i+1] - s[i], which has
// one fewer sample than s. Edge-detection analytics (PowerPlay, NIOM
// burstiness features) build on Diff.
func (s *Series) Diff() *Series {
	if len(s.Values) == 0 {
		return &Series{Start: s.Start, Step: s.Step}
	}
	out := &Series{Start: s.Start, Step: s.Step, Values: make([]float64, len(s.Values)-1)}
	for i := 0; i+1 < len(s.Values); i++ {
		out.Values[i] = s.Values[i+1] - s.Values[i]
	}
	return out
}

// MovingAverage returns the centered moving average with the given odd
// window width (in samples). Width is clamped to at least 1; an even width
// is rounded up to the next odd value.
func (s *Series) MovingAverage(width int) *Series {
	if width < 1 {
		width = 1
	}
	if width%2 == 0 {
		width++
	}
	half := width / 2
	out := s.Clone()
	if len(s.Values) == 0 {
		return out
	}
	// Prefix sums for O(n) windows. The prefix row is pure scratch — it
	// never escapes — so it comes from the package pool rather than a fresh
	// allocation per call (smoothing runs once per simulated appliance day).
	bp := scratchFloats.Get().(*[]float64)
	prefix := (*bp)[:0]
	if cap(prefix) < len(s.Values)+1 {
		prefix = make([]float64, 0, len(s.Values)+1)
	}
	prefix = append(prefix, 0)
	for i, v := range s.Values {
		prefix = append(prefix, prefix[i]+v)
	}
	for i := range s.Values {
		lo := max(0, i-half)
		hi := min(len(s.Values), i+half+1)
		out.Values[i] = (prefix[hi] - prefix[lo]) / float64(hi-lo)
	}
	*bp = prefix
	scratchFloats.Put(bp)
	return out
}

// scratchFloats pools float64 scratch rows shared by the package's
// temporary-buffer users (MovingAverage prefix sums, DetectEdges medians).
var scratchFloats = sync.Pool{New: func() any { s := make([]float64, 0, 64); return &s }}

// String implements fmt.Stringer with a compact summary.
func (s *Series) String() string {
	return fmt.Sprintf("Series{start=%s step=%s n=%d mean=%.2f}",
		s.Start.Format(time.RFC3339), s.Step, len(s.Values), s.Mean())
}
