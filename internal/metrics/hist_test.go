package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestHistogramQuantileAgainstSortedOracle checks the quantile estimate
// against the exact quantile of a sorted sample: the log2-bucketed estimate
// must bound the true value from above by strictly less than a factor of
// two (the bucket width guarantee documented on Histogram).
func TestHistogramQuantileAgainstSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	distributions := map[string]func() int64{
		// Uniform microsecond latencies.
		"uniform": func() int64 { return rng.Int63n(1_000_000) },
		// Log-normal-ish: the shape real request latencies take.
		"lognormal": func() int64 { return int64(math.Exp(rng.NormFloat64()*1.5 + 8)) },
		// Bimodal hit/miss mix like the serving tier's 6µs/100ms split.
		"bimodal": func() int64 {
			if rng.Intn(10) == 0 {
				return 100_000 + rng.Int63n(20_000)
			}
			return 5 + rng.Int63n(10)
		},
	}
	for name, draw := range distributions {
		var h Histogram
		samples := make([]int64, 5000)
		for i := range samples {
			samples[i] = draw()
			h.Observe(samples[i])
		}
		sorted := append([]int64(nil), samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

		for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0} {
			rank := int(math.Ceil(q * float64(len(sorted))))
			if rank < 1 {
				rank = 1
			}
			oracle := sorted[rank-1]
			est := h.Quantile(q)
			if est < oracle {
				t.Errorf("%s q=%.2f: estimate %d below exact quantile %d", name, q, est, oracle)
			}
			if oracle > 0 && est >= 2*oracle {
				t.Errorf("%s q=%.2f: estimate %d exceeds 2x exact quantile %d", name, q, est, oracle)
			}
			if oracle == 0 && est != 0 {
				t.Errorf("%s q=%.2f: estimate %d for exact quantile 0", name, q, est)
			}
		}
		if h.Count() != int64(len(samples)) {
			t.Errorf("%s: count = %d, want %d", name, h.Count(), len(samples))
		}
		var sum int64
		for _, v := range samples {
			sum += v
		}
		if h.Sum() != sum {
			t.Errorf("%s: sum = %d, want %d", name, h.Sum(), sum)
		}
	}
}

func TestHistogramEdges(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %d, want 0", got)
	}
	h.Observe(0)
	if got := h.Quantile(1.0); got != 0 {
		t.Errorf("all-zero quantile = %d, want 0", got)
	}
	h.Observe(-5) // clock-step clamp
	if got := h.Quantile(1.0); got != 0 {
		t.Errorf("negative samples must clamp to bucket 0, got %d", got)
	}
	var single Histogram
	single.Observe(1 << 40)
	est := single.Quantile(0.5)
	if est < 1<<40 || est >= 1<<41 {
		t.Errorf("single-sample quantile = %d, want within [2^40, 2^41)", est)
	}
}

// TestHistogramConcurrentObserve hammers Observe from many goroutines;
// under -race this is the lock-freedom proof, and the totals must be exact
// (atomics lose nothing).
func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= per; i++ {
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Errorf("count = %d, want %d", h.Count(), workers*per)
	}
	if want := int64(workers) * per * (per + 1) / 2; h.Sum() != want {
		t.Errorf("sum = %d, want %d", h.Sum(), want)
	}
}

func TestHistogramWriteQuantiles(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	var sb strings.Builder
	if err := h.WriteQuantiles(&sb, "x"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"x_p50 ", "x_p95 ", "x_p99 "} {
		if !strings.Contains(out, want) {
			t.Errorf("quantile output missing %q:\n%s", want, out)
		}
	}
}
