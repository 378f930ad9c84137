// Package invariant encodes the reproduction's cross-package correctness
// laws as reusable property checkers. Each checker states one invariant the
// paper's evaluation relies on — energy conservation through resampling, the
// half-open index/time contract, billing totals matching integrated energy,
// bit-identical concurrent suite runs, and defense metrics moving monotonically
// with their knob — and returns a descriptive error when the law is violated.
//
// Checkers are pure functions over their inputs so they can be driven from
// property tests in any package (timeseries, meter, experiments, defense/*)
// without this package importing the caller. Randomized inputs come from
// Check/Rand, which derive a deterministic sub-seed per case: a reported
// failure names its case index and replays exactly.
package invariant

import (
	"fmt"
	"math"
	"time"

	"privmem/internal/meter"
	"privmem/internal/timeseries"
)

// relTol is the relative tolerance for float comparisons that should agree
// up to summation-order effects.
const relTol = 1e-9

// approxEqual reports whether a and b agree within rel relative tolerance
// (anchored to the larger magnitude, with an absolute floor for values near
// zero).
func approxEqual(a, b, rel float64) bool {
	diff := math.Abs(a - b)
	scale := max(math.Abs(a), math.Abs(b))
	return diff <= rel*max(scale, 1)
}

// EnergyConservedUnderResample checks the Series.Resample contract: the
// integral of the series over time (Energy) is conserved when resampling to
// step, whether coarsening (partial tail bucket averaged over the full step)
// or refining (sample-and-hold). step must be a valid resampling target for
// s; the checker surfaces the Resample error otherwise.
func EnergyConservedUnderResample(s *timeseries.Series, step time.Duration) error {
	r, err := s.Resample(step)
	if err != nil {
		return fmt.Errorf("invariant: resample %v -> %v: %w", s.Step, step, err)
	}
	if !approxEqual(s.Energy(), r.Energy(), relTol) {
		return fmt.Errorf("invariant: energy not conserved by resample %v -> %v: %.9f Wh vs %.9f Wh (n=%d)",
			s.Step, step, s.Energy(), r.Energy(), s.Len())
	}
	if !r.Start.Equal(s.Start) {
		return fmt.Errorf("invariant: resample moved start %v -> %v", s.Start, r.Start)
	}
	return nil
}

// IndexTimeRoundTrip checks the half-open interval contract of
// Series.IndexOf/TimeAt: any instant inside [TimeAt(i), TimeAt(i)+Step) maps
// back to index i, the instant just before Start maps to a negative index
// (never truncated onto sample 0), and At agrees with direct indexing.
func IndexTimeRoundTrip(s *timeseries.Series) error {
	if s.Len() == 0 {
		return nil
	}
	offsets := []time.Duration{0, s.Step / 2, s.Step - time.Nanosecond}
	for i := 0; i < s.Len(); i++ {
		base := s.TimeAt(i)
		for _, off := range offsets {
			if got := s.IndexOf(base.Add(off)); got != i {
				return fmt.Errorf("invariant: IndexOf(TimeAt(%d)+%v) = %d, want %d (step %v)", i, off, got, i, s.Step)
			}
		}
		if got := s.At(base); got != s.Values[i] {
			return fmt.Errorf("invariant: At(TimeAt(%d)) = %v, want %v", i, got, s.Values[i])
		}
	}
	if got := s.IndexOf(s.Start.Add(-time.Nanosecond)); got >= 0 {
		return fmt.Errorf("invariant: pre-start instant mapped to index %d, want negative", got)
	}
	if got := s.IndexOf(s.End()); got != s.Len() {
		return fmt.Errorf("invariant: IndexOf(End()) = %d, want %d", got, s.Len())
	}
	return nil
}

// WindowsPartition checks that Series.Windows partitions the covered prefix
// of the series: window stats concatenated in order reconstruct the
// whole-prefix mean, min, and max exactly (up to summation order), each
// window starts where the previous ended, and a width that does not divide
// the length drops only the trailing partial window.
func WindowsPartition(s *timeseries.Series, width time.Duration) error {
	stats, err := s.Windows(width)
	if err != nil {
		return fmt.Errorf("invariant: windows(%v): %w", width, err)
	}
	k := int(width / s.Step)
	wantWindows := s.Len() / k
	if len(stats) != wantWindows {
		return fmt.Errorf("invariant: windows(%v) returned %d windows, want %d", width, len(stats), wantWindows)
	}
	covered := wantWindows * k
	if dropped := s.Len() - covered; dropped < 0 || dropped >= k {
		return fmt.Errorf("invariant: windows(%v) dropped %d samples, want tail in [0, %d)", width, dropped, k)
	}
	if covered == 0 {
		return nil
	}
	prefix := s.Slice(0, covered)
	var n int
	var sum float64
	minV, maxV := math.Inf(1), math.Inf(-1)
	for w, st := range stats {
		if st.N != k {
			return fmt.Errorf("invariant: window %d has %d samples, want %d", w, st.N, k)
		}
		if want := s.TimeAt(w * k); !st.Start.Equal(want) {
			return fmt.Errorf("invariant: window %d starts at %v, want %v", w, st.Start, want)
		}
		n += st.N
		sum += st.Mean * float64(st.N)
		minV = min(minV, st.Min)
		maxV = max(maxV, st.Max)
	}
	if n != covered {
		return fmt.Errorf("invariant: windows cover %d samples, want %d", n, covered)
	}
	if !approxEqual(sum/float64(n), prefix.Mean(), relTol) {
		return fmt.Errorf("invariant: window means reconstruct mean %.9f, series prefix mean %.9f", sum/float64(n), prefix.Mean())
	}
	if minV != prefix.Min() || maxV != prefix.Max() {
		return fmt.Errorf("invariant: window min/max = %v/%v, prefix min/max = %v/%v",
			minV, maxV, prefix.Min(), prefix.Max())
	}
	return nil
}

// BillingConservesEnergy checks the AMI billing contract: the sum of
// meter.BillingReadings over a power series stays within tolWh watt-hours of
// the series' integrated Energy. The drift-compensating accumulator
// guarantees 0.5 Wh over any trace length; callers pass their acceptable
// bound (usually 0.5 plus float slack).
func BillingConservesEnergy(power *timeseries.Series, tolWh float64) error {
	readings := meter.BillingReadings(power)
	if len(readings) != power.Len() {
		return fmt.Errorf("invariant: %d billing readings for %d samples", len(readings), power.Len())
	}
	total := float64(meter.TotalWattHours(readings))
	if diff := math.Abs(total - power.Energy()); diff > tolWh {
		return fmt.Errorf("invariant: billed %v Wh vs energy %.3f Wh: drift %.3f Wh exceeds %.3f Wh (n=%d)",
			total, power.Energy(), diff, tolWh, power.Len())
	}
	for i, r := range readings {
		if !r.Start.Equal(power.TimeAt(i)) {
			return fmt.Errorf("invariant: reading %d starts at %v, want %v", i, r.Start, power.TimeAt(i))
		}
	}
	return nil
}

// Direction selects the sense of a Monotone check.
type Direction int

const (
	// NonDecreasing requires ys[i+1] >= ys[i] - tol.
	NonDecreasing Direction = iota
	// NonIncreasing requires ys[i+1] <= ys[i] + tol.
	NonIncreasing
)

func (d Direction) String() string {
	if d == NonIncreasing {
		return "non-increasing"
	}
	return "non-decreasing"
}

// Monotone checks that the metric ys is monotone in the knob xs in the given
// direction, tolerating violations up to tol per step (defense responses are
// simulated, so small non-monotonic ripples are physical, not bugs — the
// invariant is the trend). xs must be strictly increasing: the caller
// controls knob ordering, the checker validates it.
func Monotone(name string, xs, ys []float64, dir Direction, tol float64) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("invariant: %s: %d knobs vs %d metrics", name, len(xs), len(ys))
	}
	if len(xs) < 2 {
		return fmt.Errorf("invariant: %s: need at least 2 knob settings, got %d", name, len(xs))
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return fmt.Errorf("invariant: %s: knobs not strictly increasing at %d (%v <= %v)", name, i, xs[i], xs[i-1])
		}
		step := ys[i] - ys[i-1]
		if dir == NonIncreasing {
			step = -step
		}
		if step < -tol {
			return fmt.Errorf("invariant: %s not %s in knob: metric %v at knob %v but %v at knob %v (tol %v)",
				name, dir, ys[i-1], xs[i-1], ys[i], xs[i], tol)
		}
	}
	return nil
}
