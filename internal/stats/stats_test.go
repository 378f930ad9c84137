package stats

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v", got)
	}
	if got := Variance(xs); got != 4 {
		t.Errorf("Variance = %v", got)
	}
	if got := Std(xs); got != 2 {
		t.Errorf("Std = %v", got)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty input should yield 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4}
	tests := []struct {
		q    float64
		want float64
	}{
		{q: 0, want: 1},
		{q: 1, want: 4},
		{q: 0.5, want: 2.5},
		{q: -1, want: 1},
		{q: 2, want: 4},
		{q: 1.0 / 3, want: 2},
	}
	for _, tt := range tests {
		if got := Quantile(xs, tt.q); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	// A reused buffer longer than xs, holding stale values, changes
	// nothing, and xs itself stays unsorted.
	buf := []float64{9, 9, 9, 9, 9, 9}
	for _, tt := range tests {
		if got, want := QuantileInto(buf, xs, tt.q), Quantile(xs, tt.q); got != want {
			t.Errorf("QuantileInto(%v) = %v, Quantile %v", tt.q, got, want)
		}
	}
	if xs[0] != 3 {
		t.Errorf("QuantileInto reordered its input: %v", xs)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("Quantile(nil) should be 0")
	}
	if Median([]float64{5}) != 5 {
		t.Error("Median single")
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil || math.Abs(r-1) > 1e-12 {
		t.Errorf("Pearson = %v, %v", r, err)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, err = Pearson(xs, neg)
	if err != nil || math.Abs(r+1) > 1e-12 {
		t.Errorf("Pearson anti = %v, %v", r, err)
	}
	if _, err := Pearson(xs, ys[:3]); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Pearson([]float64{1}, []float64{1}); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("single sample error = %v", err)
	}
	if _, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("zero variance error = %v", err)
	}
}

func TestLaplaceMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 200000
	const b = 2.0
	var sum, sumAbs float64
	for i := 0; i < n; i++ {
		v := Laplace(rng, b)
		sum += v
		sumAbs += math.Abs(v)
	}
	if mean := sum / n; math.Abs(mean) > 0.05 {
		t.Errorf("Laplace mean = %v, want ~0", mean)
	}
	// E|X| = b for Laplace(0, b).
	if meanAbs := sumAbs / n; math.Abs(meanAbs-b) > 0.05 {
		t.Errorf("Laplace E|X| = %v, want %v", meanAbs, b)
	}
}

func TestTruncNormalBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		v := TruncNormal(rng, 5, 10, 0, 6)
		if v < 0 || v > 6 {
			t.Fatalf("TruncNormal out of bounds: %v", v)
		}
	}
}

func TestKMeans1D(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var xs []float64
	for i := 0; i < 300; i++ {
		xs = append(xs, 10+rng.NormFloat64())
		xs = append(xs, 100+rng.NormFloat64())
		xs = append(xs, 1000+rng.NormFloat64())
	}
	centers, err := KMeans1D(xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 100, 1000}
	for i, w := range want {
		if math.Abs(centers[i]-w) > 2 {
			t.Errorf("center[%d] = %v, want ~%v", i, centers[i], w)
		}
	}
	if !sort.Float64sAreSorted(centers) {
		t.Error("centers should be sorted")
	}
	if _, err := KMeans1D(xs[:2], 3); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("insufficient data error = %v", err)
	}
	if _, err := KMeans1D(xs, 0); err == nil {
		t.Error("k=0 should error")
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		xs := make([]float64, 0, len(raw)+1)
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			xs = []float64{0}
		}
		a := math.Mod(math.Abs(q1), 1)
		b := math.Mod(math.Abs(q2), 1)
		if a > b {
			a, b = b, a
		}
		qa, qb := Quantile(xs, a), Quantile(xs, b)
		lo, hi := Quantile(xs, 0), Quantile(xs, 1)
		return qa <= qb && qa >= lo && qb <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Pearson is invariant under positive affine transforms.
func TestQuickPearsonAffineInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 10 + rng.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = xs[i]*0.5 + rng.NormFloat64()
		}
		r1, err1 := Pearson(xs, ys)
		scaled := make([]float64, n)
		for i, y := range ys {
			scaled[i] = 3*y + 17
		}
		r2, err2 := Pearson(xs, scaled)
		if err1 != nil || err2 != nil {
			t.Fatalf("unexpected errors: %v %v", err1, err2)
		}
		if math.Abs(r1-r2) > 1e-9 {
			t.Fatalf("affine invariance violated: %v vs %v", r1, r2)
		}
	}
}

// TestBuiltinMinMaxMatchMath pins how the min and max builtins, which the
// code base uses in place of math.Min and math.Max, relate to them over
// the special values: bit for bit the same, signed zeros and single NaNs
// included, with one exception. math.Max lets +Inf win over NaN (and
// math.Min lets -Inf win), while the builtins return NaN whenever an
// operand is NaN. Only a reduction over data holding both NaN and that
// infinity can tell the two apart.
func TestBuiltinMinMaxMatchMath(t *testing.T) {
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		1, -1, math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
	}
	same := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return math.IsNaN(a) && math.IsNaN(b)
		}
		return math.Float64bits(a) == math.Float64bits(b)
	}
	// nanBeats reports whether x, y is the one pair on which the builtin
	// returns NaN and math returns the infinity inf.
	nanBeats := func(x, y, inf float64) bool {
		return (math.IsNaN(x) && y == inf) || (x == inf && math.IsNaN(y))
	}
	for _, x := range specials {
		for _, y := range specials {
			got, want := max(x, y), math.Max(x, y)
			if nanBeats(x, y, math.Inf(1)) {
				want = math.NaN()
			}
			if !same(got, want) {
				t.Errorf("max(%v, %v) = %v, want %v", x, y, got, want)
			}
			got, want = min(x, y), math.Min(x, y)
			if nanBeats(x, y, math.Inf(-1)) {
				want = math.NaN()
			}
			if !same(got, want) {
				t.Errorf("min(%v, %v) = %v, want %v", x, y, got, want)
			}
		}
	}
}
