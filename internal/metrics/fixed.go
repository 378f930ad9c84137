package metrics

import "sync/atomic"

// FixedHistogram is the linear-bucket sibling of Histogram: equal-width
// buckets over a fixed range [0, upper]. The log2 histogram's multiplicative
// error bound suits latencies spanning orders of magnitude; it is far too
// coarse for bounded fractions like per-home attack accuracy, where the
// interesting structure lives between 0.5 and 1.0 inside a single log2
// bucket. A FixedHistogram trades the unbounded range for additive error:
// the reported quantile overshoots the true sample by at most one bucket
// width.
//
// Like Histogram, every update is a commutative atomic add, so recording the
// same sample multiset in any order — any worker count, any interleaving —
// yields bit-identical counters and therefore bit-identical quantiles.
type FixedHistogram struct {
	upper  int64
	width  int64
	counts []atomic.Int64
}

// NewFixedHistogram builds a histogram of the given bucket count over
// [0, upper]. Samples above upper (and the rounding slack of the last
// partial bucket) clamp into the top bucket; negative samples clamp to 0.
func NewFixedHistogram(buckets int, upper int64) *FixedHistogram {
	if buckets < 1 {
		buckets = 1
	}
	if upper < int64(buckets) {
		upper = int64(buckets)
	}
	width := (upper + int64(buckets) - 1) / int64(buckets)
	return &FixedHistogram{
		upper:  upper,
		width:  width,
		counts: make([]atomic.Int64, buckets),
	}
}

// Observe records one sample.
func (h *FixedHistogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	b := int(v / h.width)
	if b >= len(h.counts) {
		b = len(h.counts) - 1
	}
	h.counts[b].Add(1)
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1): the upper
// edge of the bucket holding the sample of rank ceil(q*count), clamped to
// the histogram's range. An empty histogram reports 0.
func (h *FixedHistogram) Quantile(q float64) int64 {
	counts := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for b := range counts {
		cum += counts[b]
		if cum >= rank {
			edge := int64(b+1) * h.width
			if edge > h.upper {
				edge = h.upper
			}
			return edge
		}
	}
	return h.upper
}
