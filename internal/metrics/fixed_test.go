package metrics

import (
	"slices"
	"sync"
	"testing"
)

// bucketCounts snapshots h's per-bucket counters.
func bucketCounts(h *FixedHistogram) []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// total is the number of samples h recorded.
func total(h *FixedHistogram) int64 {
	var n int64
	for _, c := range bucketCounts(h) {
		n += c
	}
	return n
}

// TestFixedHistogramQuantiles checks the additive error bound: the reported
// quantile is the upper edge of the sample's bucket, at most one width high.
func TestFixedHistogramQuantiles(t *testing.T) {
	h := NewFixedHistogram(1000, 1_000_000) // width 1000
	for v := int64(0); v < 1_000_000; v += 10_000 {
		h.Observe(v)
	}
	if got := total(h); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	// The true median of {0, 10k, ..., 990k} ranks at 490k or 500k; the
	// estimate must sit within one bucket width above a true sample.
	med := h.Quantile(0.5)
	if med < 490_000 || med > 501_000 {
		t.Fatalf("p50 = %d, want within a bucket of the true median", med)
	}
	p99 := h.Quantile(0.99)
	if p99 < 980_000 || p99 > 991_000 {
		t.Fatalf("p99 = %d", p99)
	}
	if h.Quantile(1) != 991_000 {
		t.Fatalf("p100 = %d, want upper edge of top sample's bucket", h.Quantile(1))
	}
}

// TestFixedHistogramClamps: negatives go to bucket zero, overshoot clamps
// into the top bucket, and quantile never exceeds the configured range.
func TestFixedHistogramClamps(t *testing.T) {
	h := NewFixedHistogram(10, 100)
	h.Observe(-50)
	h.Observe(1_000_000)
	if got := h.Quantile(0.25); got != 10 {
		t.Fatalf("clamped negative landed at %d, want first bucket edge 10", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Fatalf("overshoot quantile = %d, want clamped to 100", got)
	}
	if got := total(h); got != 2 {
		t.Fatalf("count = %d", got)
	}
}

// TestFixedHistogramEmpty: an empty histogram reports zero everywhere.
func TestFixedHistogramEmpty(t *testing.T) {
	h := NewFixedHistogram(16, 1000)
	if h.Quantile(0.5) != 0 || total(h) != 0 {
		t.Fatal("empty histogram not zero")
	}
}

// TestFixedHistogramDegenerateConfig: hostile constructor arguments are
// normalized, not propagated.
func TestFixedHistogramDegenerateConfig(t *testing.T) {
	h := NewFixedHistogram(0, -5)
	h.Observe(3)
	if got := h.Quantile(1); got != 1 {
		t.Fatalf("degenerate histogram quantile = %d", got)
	}
}

// TestFixedHistogramMergeOrderIndependent is the determinism property the
// fleet pipeline leans on: the same sample multiset recorded from any number
// of goroutines in any interleaving yields identical counters.
func TestFixedHistogramMergeOrderIndependent(t *testing.T) {
	samples := make([]int64, 5000)
	for i := range samples {
		samples[i] = int64(i * 37 % 1_000_000)
	}
	serial := NewFixedHistogram(500, 1_000_000)
	for _, v := range samples {
		serial.Observe(v)
	}
	concurrent := NewFixedHistogram(500, 1_000_000)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(samples); i += 8 {
				concurrent.Observe(samples[i])
			}
		}(w)
	}
	wg.Wait()
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
		if a, b := serial.Quantile(q), concurrent.Quantile(q); a != b {
			t.Fatalf("q=%v: serial %d != concurrent %d", q, a, b)
		}
	}
	if !slices.Equal(bucketCounts(serial), bucketCounts(concurrent)) {
		t.Fatal("bucket counters diverged across recording orders")
	}
}
