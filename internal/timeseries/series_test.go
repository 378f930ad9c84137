package timeseries

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

var testStart = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

// fromValues returns a series wrapping a copy of values.
func fromValues(start time.Time, step time.Duration, values []float64) (*Series, error) {
	s, err := New(start, step, len(values))
	if err != nil {
		return nil, err
	}
	copy(s.Values, values)
	return s, nil
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		step    time.Duration
		n       int
		wantErr error
	}{
		{name: "valid", step: time.Minute, n: 10},
		{name: "zero length", step: time.Minute, n: 0},
		{name: "zero step", step: 0, n: 10, wantErr: ErrBadStep},
		{name: "negative step", step: -time.Second, n: 10, wantErr: ErrBadStep},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s, err := New(testStart, tt.step, tt.n)
			if tt.wantErr != nil {
				if !errors.Is(err, tt.wantErr) {
					t.Fatalf("New() error = %v, want %v", err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("New() unexpected error: %v", err)
			}
			if s.Len() != tt.n {
				t.Errorf("Len() = %d, want %d", s.Len(), tt.n)
			}
		})
	}

	if _, err := New(testStart, time.Minute, -1); err == nil {
		t.Error("New() with negative length should fail")
	}
}

func TestTimeIndexRoundTrip(t *testing.T) {
	s := MustNew(testStart, 5*time.Minute, 100)
	for _, i := range []int{0, 1, 50, 99} {
		if got := s.IndexOf(s.TimeAt(i)); got != i {
			t.Errorf("IndexOf(TimeAt(%d)) = %d", i, got)
		}
	}
	if got := s.End(); !got.Equal(testStart.Add(500 * time.Minute)) {
		t.Errorf("End() = %v", got)
	}
}

func TestAtOutOfRange(t *testing.T) {
	s, err := fromValues(testStart, time.Minute, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.At(testStart.Add(-time.Hour)); got != 0 {
		t.Errorf("At(before) = %v, want 0", got)
	}
	if got := s.At(testStart.Add(time.Hour)); got != 0 {
		t.Errorf("At(after) = %v, want 0", got)
	}
	if got := s.At(testStart.Add(time.Minute)); got != 2 {
		t.Errorf("At(+1m) = %v, want 2", got)
	}
}

func TestAddSub(t *testing.T) {
	a, _ := fromValues(testStart, time.Minute, []float64{1, 2, 3})
	b, _ := fromValues(testStart, time.Minute, []float64{10, 20, 30, 40})

	sum, err := a.Add(b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{11, 22, 33}
	for i, v := range want {
		if sum.Values[i] != v {
			t.Errorf("Add()[%d] = %v, want %v", i, sum.Values[i], v)
		}
	}

	diff, err := b.Sub(a)
	if err != nil {
		t.Fatal(err)
	}
	if diff.Len() != 3 || diff.Values[2] != 27 {
		t.Errorf("Sub() = %v", diff.Values)
	}

	c := MustNew(testStart, time.Hour, 3)
	if _, err := a.Add(c); !errors.Is(err, ErrStepMismatch) {
		t.Errorf("Add() step mismatch error = %v", err)
	}
	d := MustNew(testStart.Add(time.Minute), time.Minute, 3)
	if _, err := a.Add(d); err == nil {
		t.Error("Add() with different starts should fail")
	}
}

func TestAddInPlaceOffset(t *testing.T) {
	base := MustNew(testStart, time.Minute, 10)
	patch, _ := fromValues(testStart.Add(3*time.Minute), time.Minute, []float64{5, 5, 5})
	if err := base.AddInPlace(patch); err != nil {
		t.Fatal(err)
	}
	for i, v := range base.Values {
		want := 0.0
		if i >= 3 && i <= 5 {
			want = 5
		}
		if v != want {
			t.Errorf("Values[%d] = %v, want %v", i, v, want)
		}
	}

	// Patch partially before the base must not panic and must clip.
	early, _ := fromValues(testStart.Add(-2*time.Minute), time.Minute, []float64{7, 7, 7})
	if err := base.AddInPlace(early); err != nil {
		t.Fatal(err)
	}
	if base.Values[0] != 7 {
		t.Errorf("Values[0] = %v, want 7", base.Values[0])
	}
}

func TestStatsAndEnergy(t *testing.T) {
	s, _ := fromValues(testStart, 30*time.Minute, []float64{100, 300, 200, 0})
	if got := s.Mean(); got != 150 {
		t.Errorf("Mean() = %v", got)
	}
	if got := s.Max(); got != 300 {
		t.Errorf("Max() = %v", got)
	}
	if got := s.Min(); got != 0 {
		t.Errorf("Min() = %v", got)
	}
	// 600 W-slots * 0.5h = 300 Wh
	if got := s.Energy(); math.Abs(got-300) > 1e-9 {
		t.Errorf("Energy() = %v, want 300", got)
	}
	if got := s.Std(); math.Abs(got-math.Sqrt(12500)) > 1e-9 {
		t.Errorf("Std() = %v", got)
	}

	empty := MustNew(testStart, time.Minute, 0)
	if empty.Mean() != 0 || empty.Max() != 0 || empty.Min() != 0 || empty.Std() != 0 {
		t.Error("empty series stats should be zero")
	}
}

func TestResampleCoarsen(t *testing.T) {
	s, _ := fromValues(testStart, time.Minute, []float64{1, 3, 5, 7, 2, 4})
	r, err := s.Resample(2 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 6, 3}
	for i, v := range want {
		if r.Values[i] != v {
			t.Errorf("Resample()[%d] = %v, want %v", i, r.Values[i], v)
		}
	}
	if r.Step != 2*time.Minute {
		t.Errorf("Step = %v", r.Step)
	}
}

func TestResampleRefine(t *testing.T) {
	s, _ := fromValues(testStart, 2*time.Minute, []float64{4, 8})
	r, err := s.Resample(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{4, 4, 8, 8}
	for i, v := range want {
		if r.Values[i] != v {
			t.Errorf("Resample()[%d] = %v, want %v", i, r.Values[i], v)
		}
	}
}

func TestResampleErrors(t *testing.T) {
	s := MustNew(testStart, 3*time.Minute, 10)
	if _, err := s.Resample(2 * time.Minute); !errors.Is(err, ErrStepMismatch) {
		t.Errorf("refine non-divisor error = %v", err)
	}
	if _, err := s.Resample(7 * time.Minute); !errors.Is(err, ErrStepMismatch) {
		t.Errorf("coarsen non-multiple error = %v", err)
	}
	if _, err := s.Resample(0); !errors.Is(err, ErrBadStep) {
		t.Errorf("zero step error = %v", err)
	}
}

func TestResampleRoundTripPreservesEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := MustNew(testStart, time.Minute, 240)
	for i := range s.Values {
		s.Values[i] = rng.Float64() * 1000
	}
	coarse, err := s.Resample(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(coarse.Energy()-s.Energy()) > 1e-6 {
		t.Errorf("energy changed: %v -> %v", s.Energy(), coarse.Energy())
	}
}

// Regression: IndexOf divided with truncation toward zero, so a timestamp
// strictly inside (Start-Step, Start) mapped to index 0. At then returned
// Values[0] for an out-of-range time instead of 0.
func TestIndexOfFloorsPreStart(t *testing.T) {
	s, _ := fromValues(testStart, time.Minute, []float64{1, 2, 3})
	cases := []struct {
		offset time.Duration
		want   int
	}{
		{-time.Second, -1},      // inside (Start-Step, Start): the bug
		{-59 * time.Second, -1}, // still the bug window
		{-time.Minute, -1},      // exactly one step early
		{-90 * time.Second, -2}, // deeper pre-start, non-aligned
		{-2 * time.Minute, -2},  // aligned
		{0, 0},
		{59 * time.Second, 0},
		{time.Minute, 1},
	}
	for _, c := range cases {
		if got := s.IndexOf(testStart.Add(c.offset)); got != c.want {
			t.Errorf("IndexOf(Start%+v) = %d, want %d", c.offset, got, c.want)
		}
	}
	if got := s.At(testStart.Add(-time.Second)); got != 0 {
		t.Errorf("At(Start-1s) = %v, want 0 (out of range)", got)
	}
	if w := s.Window(testStart.Add(-90*time.Second), testStart.Add(-time.Second)); w.Len() != 0 {
		t.Errorf("pre-start Window has %d samples, want 0", w.Len())
	}
}

// Regression: coarsening silently dropped up to k-1 trailing samples
// (n := len/k), losing their energy with no signal to the caller. The
// partial tail is now emitted as a full-width average, so Energy() is
// conserved exactly.
func TestResamplePartialTailConservesEnergy(t *testing.T) {
	// 150 minutes at a constant 1 kW: 2.5 hourly buckets.
	s := MustNew(testStart, time.Minute, 150)
	for i := range s.Values {
		s.Values[i] = 1000
	}
	r, err := s.Resample(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("Resample() len = %d, want 3 (partial tail bucket kept)", r.Len())
	}
	if r.Values[0] != 1000 || r.Values[1] != 1000 {
		t.Errorf("full buckets = %v, %v, want 1000", r.Values[0], r.Values[1])
	}
	// 30 of 60 minutes at 1 kW, averaged over the full hour.
	if r.Values[2] != 500 {
		t.Errorf("tail bucket = %v, want 500", r.Values[2])
	}
	if math.Abs(r.Energy()-s.Energy()) > 1e-6 {
		t.Errorf("energy not conserved: %v -> %v", s.Energy(), r.Energy())
	}
}

func TestDiff(t *testing.T) {
	s, _ := fromValues(testStart, time.Minute, []float64{1, 4, 2, 2})
	d := s.Diff()
	want := []float64{3, -2, 0}
	if d.Len() != 3 {
		t.Fatalf("Diff() len = %d", d.Len())
	}
	for i, v := range want {
		if d.Values[i] != v {
			t.Errorf("Diff()[%d] = %v, want %v", i, d.Values[i], v)
		}
	}
	if got := MustNew(testStart, time.Minute, 0).Diff(); got.Len() != 0 {
		t.Errorf("Diff() of empty = %d samples", got.Len())
	}
}

func TestMovingAverage(t *testing.T) {
	s, _ := fromValues(testStart, time.Minute, []float64{0, 0, 9, 0, 0})
	m := s.MovingAverage(3)
	want := []float64{0, 3, 3, 3, 0}
	for i, v := range want {
		if m.Values[i] != v {
			t.Errorf("MovingAverage()[%d] = %v, want %v", i, m.Values[i], v)
		}
	}
	// Even width rounds up to odd; width < 1 clamps.
	if got := s.MovingAverage(2); got.Values[1] != 3 {
		t.Errorf("even width not rounded up: %v", got.Values)
	}
	if got := s.MovingAverage(0); got.Values[2] != 9 {
		t.Errorf("width 0 should be identity: %v", got.Values)
	}
}

func TestSliceClamping(t *testing.T) {
	s, _ := fromValues(testStart, time.Minute, []float64{1, 2, 3, 4})
	if got := s.Slice(-5, 2); got.Len() != 2 || got.Values[0] != 1 {
		t.Errorf("Slice(-5,2) = %v", got.Values)
	}
	if got := s.Slice(2, 100); got.Len() != 2 || got.Values[0] != 3 {
		t.Errorf("Slice(2,100) = %v", got.Values)
	}
	if got := s.Slice(3, 1); got.Len() != 0 {
		t.Errorf("Slice(3,1) = %v", got.Values)
	}
	w := s.Window(testStart.Add(time.Minute), testStart.Add(3*time.Minute))
	if w.Len() != 2 || w.Values[0] != 2 {
		t.Errorf("Window() = %v", w.Values)
	}
	if !w.Start.Equal(testStart.Add(time.Minute)) {
		t.Errorf("Window().Start = %v", w.Start)
	}
}

func TestMapScaleClampBinary(t *testing.T) {
	s, _ := fromValues(testStart, time.Minute, []float64{-1, 0.5, 2})
	b := s.Binary(0.5)
	want := []float64{0, 1, 1}
	for i, v := range want {
		if b.Values[i] != v {
			t.Errorf("Binary()[%d] = %v", i, b.Values[i])
		}
	}
	if s.Values[0] != -1 {
		t.Error("Binary() must not mutate receiver")
	}
	s.Clamp(0, 1)
	if s.Values[0] != 0 || s.Values[2] != 1 {
		t.Errorf("Clamp() = %v", s.Values)
	}
	s.Scale(10)
	if s.Values[1] != 5 {
		t.Errorf("Scale() = %v", s.Values)
	}
	s.Map(func(x float64) float64 { return x + 1 })
	if s.Values[0] != 1 {
		t.Errorf("Map() = %v", s.Values)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s, _ := fromValues(testStart, time.Minute, []float64{1, 2})
	c := s.Clone()
	c.Values[0] = 99
	if s.Values[0] != 1 {
		t.Error("Clone() shares backing array")
	}
}

// Property: Add is commutative and Sub(x, x) is zero.
func TestQuickAddCommutative(t *testing.T) {
	f := func(raw []float64) bool {
		vals := sanitize(raw)
		a, _ := fromValues(testStart, time.Minute, vals)
		b, _ := fromValues(testStart, time.Minute, reversed(vals))
		ab, err1 := a.Add(b)
		ba, err2 := b.Add(a)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range ab.Values {
			if ab.Values[i] != ba.Values[i] {
				return false
			}
		}
		z, err := a.Sub(a)
		if err != nil {
			return false
		}
		for _, v := range z.Values {
			if v != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: coarsening resample preserves total energy for every length,
// including lengths that leave a partial trailing bucket.
func TestQuickResampleEnergy(t *testing.T) {
	f := func(raw []float64, kRaw uint8) bool {
		vals := sanitize(raw)
		k := int(kRaw%8) + 1
		s, _ := fromValues(testStart, time.Minute, vals)
		r, err := s.Resample(time.Duration(k) * time.Minute)
		if err != nil {
			return false
		}
		return math.Abs(r.Energy()-s.Energy()) < 1e-6*(1+math.Abs(s.Energy()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func sanitize(raw []float64) []float64 {
	out := make([]float64, 0, len(raw)+1)
	for _, v := range raw {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		// Keep magnitudes sane so float error bounds hold.
		out = append(out, math.Mod(v, 1e6))
	}
	if len(out) == 0 {
		out = append(out, 1)
	}
	return out
}

func reversed(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[len(xs)-1-i] = v
	}
	return out
}
