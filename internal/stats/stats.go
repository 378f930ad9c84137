// Package stats provides the small statistical toolkit shared by the
// privmem analytics: descriptive statistics, correlation, quantiles, 1-D
// k-means, and noise sampling. Everything is deterministic given a seeded
// *rand.Rand, which keeps every experiment in the repository reproducible.
package stats

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// ErrInsufficientData indicates an estimator was given fewer samples than it
// mathematically requires.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for an empty slice.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Median returns the median of xs, or 0 for an empty slice.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-quantile (q in [0,1]) of xs using linear
// interpolation between order statistics. It returns 0 for an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	tmp := make([]float64, len(xs))
	copy(tmp, xs)
	sort.Float64s(tmp)
	if q <= 0 {
		return tmp[0]
	}
	if q >= 1 {
		return tmp[len(tmp)-1]
	}
	pos := q * float64(len(tmp)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return tmp[lo]
	}
	frac := pos - float64(lo)
	return tmp[lo]*(1-frac) + tmp[hi]*frac
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It requires len(xs) == len(ys) >= 2 and non-zero variance in both inputs.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("pearson: length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, fmt.Errorf("pearson: %w", ErrInsufficientData)
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, fmt.Errorf("pearson: zero variance: %w", ErrInsufficientData)
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Ranks returns the 1-based average ranks of xs.
func Ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, len(xs))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// Laplace samples from the Laplace distribution with location 0 and the
// given scale b, using rng. It is the noise primitive of the differential-
// privacy defense.
func Laplace(rng *rand.Rand, b float64) float64 {
	u := rng.Float64() - 0.5
	if u >= 0 {
		return -b * math.Log(1-2*u)
	}
	return b * math.Log(1+2*u)
}

// TruncNormal samples a normal with the given mean and standard deviation,
// truncated (by resampling, then clamping) to [lo, hi].
func TruncNormal(rng *rand.Rand, mean, std, lo, hi float64) float64 {
	for i := 0; i < 16; i++ {
		v := mean + std*rng.NormFloat64()
		if v >= lo && v <= hi {
			return v
		}
	}
	return max(lo, min(hi, mean))
}

// KMeans1D clusters 1-D data into k clusters and returns the sorted cluster
// centers. It seeds centers at spread quantiles and runs Lloyd iterations to
// convergence. It is used to learn appliance power states for the FHMM NILM
// baseline.
func KMeans1D(xs []float64, k int) ([]float64, error) {
	if k < 1 {
		return nil, fmt.Errorf("kmeans1d: k must be >= 1, got %d", k)
	}
	if len(xs) < k {
		return nil, fmt.Errorf("kmeans1d: %d samples for k=%d: %w", len(xs), k, ErrInsufficientData)
	}
	centers := make([]float64, k)
	for i := range centers {
		centers[i] = Quantile(xs, (float64(i)+0.5)/float64(k))
	}
	assign := make([]int, len(xs))
	for iter := 0; iter < 100; iter++ {
		changed := false
		for i, x := range xs {
			best, bd := 0, math.Abs(x-centers[0])
			for c := 1; c < k; c++ {
				if d := math.Abs(x - centers[c]); d < bd {
					best, bd = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		sums := make([]float64, k)
		counts := make([]int, k)
		for i, x := range xs {
			sums[assign[i]] += x
			counts[assign[i]]++
		}
		for c := range centers {
			if counts[c] > 0 {
				centers[c] = sums[c] / float64(counts[c])
			}
		}
		if !changed && iter > 0 {
			break
		}
	}
	sort.Float64s(centers)
	return centers, nil
}
