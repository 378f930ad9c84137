package metrics

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBinaryConfusion(t *testing.T) {
	actual := []float64{1, 1, 0, 0, 1, 0}
	pred := []float64{1, 0, 0, 1, 1, 0}
	c, err := BinaryConfusion(actual, pred)
	if err != nil {
		t.Fatal(err)
	}
	if c.TP != 2 || c.TN != 2 || c.FP != 1 || c.FN != 1 {
		t.Errorf("confusion = %+v", c)
	}
	if c.Total() != 6 {
		t.Errorf("Total = %d", c.Total())
	}
	if got := c.Accuracy(); math.Abs(got-4.0/6) > 1e-12 {
		t.Errorf("Accuracy = %v", got)
	}
	if _, err := BinaryConfusion(actual, pred[:2]); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("length mismatch error = %v", err)
	}
}

// mcc scores paired indicator slices through their confusion matrix.
func mcc(actual, predicted []float64) (float64, error) {
	c, err := BinaryConfusion(actual, predicted)
	return c.MCC(), err
}

func TestMCCEndpoints(t *testing.T) {
	tests := []struct {
		name string
		act  []float64
		pred []float64
		want float64
	}{
		{name: "perfect", act: []float64{1, 0, 1, 0}, pred: []float64{1, 0, 1, 0}, want: 1},
		{name: "inverted", act: []float64{1, 0, 1, 0}, pred: []float64{0, 1, 0, 1}, want: -1},
		{name: "degenerate predictor", act: []float64{1, 0, 1, 0}, pred: []float64{1, 1, 1, 1}, want: 0},
		{name: "degenerate truth", act: []float64{1, 1, 1, 1}, pred: []float64{1, 0, 1, 0}, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := mcc(tt.act, tt.pred)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Errorf("MCC = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestMCCRandomIsNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 100000
	act := make([]float64, n)
	pred := make([]float64, n)
	for i := range act {
		if rng.Float64() < 0.4 {
			act[i] = 1
		}
		if rng.Float64() < 0.5 {
			pred[i] = 1
		}
	}
	got, err := mcc(act, pred)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got) > 0.02 {
		t.Errorf("random MCC = %v, want ~0", got)
	}
}

func TestDisaggregationError(t *testing.T) {
	actual := []float64{100, 100, 0, 0}
	perfect := []float64{100, 100, 0, 0}
	zero := []float64{0, 0, 0, 0}

	if e, err := DisaggregationError(actual, perfect); err != nil || e != 0 {
		t.Errorf("perfect error = %v, %v", e, err)
	}
	// Inferring zero always yields error factor exactly 1 (the paper's
	// "not considered good" anchor).
	if e, err := DisaggregationError(actual, zero); err != nil || e != 1 {
		t.Errorf("zero-inference error = %v, %v", e, err)
	}
	// Error can exceed 1.
	over := []float64{400, 400, 0, 0}
	if e, _ := DisaggregationError(actual, over); e != 3 {
		t.Errorf("over-inference error = %v, want 3", e)
	}
	// Degenerate: no actual usage.
	if e, _ := DisaggregationError(zero, zero); e != 0 {
		t.Errorf("all-zero error = %v", e)
	}
	if e, _ := DisaggregationError(zero, actual); !math.IsInf(e, 1) {
		t.Errorf("phantom usage error = %v, want +Inf", e)
	}
	if _, err := DisaggregationError(actual, actual[:1]); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("length mismatch error = %v", err)
	}
}

func TestRegressionMetrics(t *testing.T) {
	a := []float64{1, 2, 3}
	p := []float64{2, 2, 1}
	if got, _ := MAPE(a, p); math.Abs(got-(1+0+2.0/3)/3) > 1e-12 {
		t.Errorf("MAPE = %v", got)
	}
	if got, _ := MAPE([]float64{0, 0}, []float64{1, 1}); got != 0 {
		t.Errorf("MAPE all-zero actual = %v", got)
	}
	if _, err := MAPE(a, p[:1]); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("length mismatch error = %v", err)
	}
}

func TestHaversineKnownDistances(t *testing.T) {
	tests := []struct {
		name                   string
		lat1, lon1, lat2, lon2 float64
		wantKm                 float64
		tolKm                  float64
	}{
		{name: "same point", lat1: 42.39, lon1: -72.53, lat2: 42.39, lon2: -72.53, wantKm: 0, tolKm: 0.001},
		// Amherst MA to Boston MA: ~120 km.
		{name: "amherst-boston", lat1: 42.3732, lon1: -72.5199, lat2: 42.3601, lon2: -71.0589, wantKm: 120, tolKm: 5},
		// One degree of latitude: ~111.2 km.
		{name: "one degree lat", lat1: 40, lon1: -100, lat2: 41, lon2: -100, wantKm: 111.2, tolKm: 0.5},
		// Antipodal-ish: half circumference ~20015 km.
		{name: "poles", lat1: 90, lon1: 0, lat2: -90, lon2: 0, wantKm: 20015, tolKm: 10},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := HaversineKm(tt.lat1, tt.lon1, tt.lat2, tt.lon2)
			if math.Abs(got-tt.wantKm) > tt.tolKm {
				t.Errorf("HaversineKm = %v, want %v +/- %v", got, tt.wantKm, tt.tolKm)
			}
		})
	}
}

// Property: MCC is symmetric under swapping classes (complementing both
// inputs) and antisymmetric under complementing one input.
func TestQuickMCCSymmetry(t *testing.T) {
	f := func(bits []bool, preds []bool) bool {
		n := len(bits)
		if len(preds) < n {
			n = len(preds)
		}
		if n == 0 {
			return true
		}
		act := make([]float64, n)
		pred := make([]float64, n)
		for i := 0; i < n; i++ {
			if bits[i] {
				act[i] = 1
			}
			if preds[i] {
				pred[i] = 1
			}
		}
		flip := func(xs []float64) []float64 {
			out := make([]float64, len(xs))
			for i, v := range xs {
				out[i] = 1 - v
			}
			return out
		}
		m, _ := mcc(act, pred)
		mBoth, _ := mcc(flip(act), flip(pred))
		mOne, _ := mcc(act, flip(pred))
		return math.Abs(m-mBoth) < 1e-12 && math.Abs(m+mOne) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: MCC is always within [-1, 1].
func TestQuickMCCBounded(t *testing.T) {
	f := func(a, p []bool) bool {
		n := min(len(a), len(p))
		act := make([]float64, n)
		pred := make([]float64, n)
		for i := 0; i < n; i++ {
			if a[i] {
				act[i] = 1
			}
			if p[i] {
				pred[i] = 1
			}
		}
		m, err := mcc(act, pred)
		if err != nil {
			return false
		}
		return m >= -1-1e-12 && m <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
