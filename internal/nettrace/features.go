package nettrace

import (
	"fmt"
	"math"
	"slices"
	"time"

	"privmem/internal/stats"
)

// Features summarizes one device's traffic over one analysis window — the
// view a passive observer extracts from encrypted-flow metadata.
type Features struct {
	// Device is the LAN identity.
	Device string
	// WindowStart is the window's first instant.
	WindowStart time.Time
	// Flows counts flow records in the window.
	Flows int
	// BytesUp and BytesDown are total volumes.
	BytesUp, BytesDown float64
	// DistinctEndpoints counts unique remote hosts.
	DistinctEndpoints int
	// MeanGapS is the mean inter-flow gap in seconds. A single-flow window
	// observes no gap at all; its true gap is right-censored at the window
	// length, so MeanGapS reports the window length rather than 0 — a zero
	// would alias a sparse device with a burst of simultaneous flows.
	MeanGapS float64
	// GapCV is the coefficient of variation of inter-flow gaps: near zero
	// for metronomic heartbeats, large for bursty event traffic.
	GapCV float64
	// MaxFlowUp is the largest single upstream flow.
	MaxFlowUp float64
}

// Vector returns the feature vector used by classifiers. Volumes are
// log-compressed: they span six orders of magnitude across device classes.
func (f Features) Vector() []float64 {
	return f.AppendVector(make([]float64, 0, FeatureDim))
}

// AppendVector appends the feature vector to dst and returns it — the
// allocation-free form of Vector for hot classifier loops that reuse one
// buffer across windows.
func (f Features) AppendVector(dst []float64) []float64 {
	return append(dst,
		math.Log1p(float64(f.Flows)),
		math.Log1p(f.BytesUp),
		math.Log1p(f.BytesDown),
		math.Log1p(float64(f.DistinctEndpoints)),
		math.Log1p(f.MeanGapS),
		f.GapCV,
		math.Log1p(f.MaxFlowUp),
	)
}

// FeatureDim is the length of Features.Vector.
const FeatureDim = 7

// WindowIndex returns the index of the window of the given width covering t
// in a tiling anchored at start, flooring for instants before start: the
// second before start is window -1, never window 0. Plain integer division
// truncates toward zero, which would fold the whole (start-width, start)
// interval onto the first genuine window — the same defect the
// Series.IndexOf flooring fix removed from the energy path.
func WindowIndex(start, t time.Time, width time.Duration) int {
	d := t.Sub(start)
	w := d / width
	if d < 0 && d%width != 0 {
		w--
	}
	return int(w)
}

// ExtractFeatures buckets a capture into fixed windows per device and
// summarizes each non-empty window.
//
// Record indices are grouped per device into one shared slab, and each
// device's subsequence is summarized by a single run walk over its records
// in time order: window indices are then nondecreasing, so each window is a
// contiguous run. The dominant producers (Simulate and Shape) emit
// time-sorted records; a device whose records arrive out of order (possible
// for captures read back via ReadCapture) has its index slice stable-sorted
// by time first. The result does not depend on record order: byte counts
// are integers, so their float64 sums are exact in any order (below 2^53);
// the maximum and the endpoint set are order-free; and gaps are taken
// between time-sorted flows, so they are the same sequence either way.
func ExtractFeatures(cap *Capture, window time.Duration) (map[string][]Features, error) {
	if window <= 0 {
		return nil, fmt.Errorf("%w: window %v", ErrBadConfig, window)
	}
	recs := cap.Records

	// Group record indices by device in record order, carving per-device
	// slices out of one slab sized by a counting pass.
	counts := make(map[string]int, 16)
	for i := range recs {
		counts[recs[i].Device]++
	}
	slab := make([]int32, 0, len(recs))
	byDev := make(map[string][]int32, len(counts))
	for dev, n := range counts {
		o := len(slab)
		slab = slab[:o+n]
		byDev[dev] = slab[o : o : o+n]
	}
	for i := range recs {
		byDev[recs[i].Device] = append(byDev[recs[i].Device], int32(i))
	}

	out := make(map[string][]Features, len(byDev))
	sc := &featureScratch{endpoints: make(map[string]struct{}, 16)}
	byTime := func(a, b int32) int { return recs[a].Time.Compare(recs[b].Time) }
	for dev, idx := range byDev {
		if !slices.IsSortedFunc(idx, byTime) {
			slices.SortStableFunc(idx, byTime)
		}
		out[dev] = extractDevice(cap, dev, idx, window, sc)
	}
	return out, nil
}

// featureScratch is the per-call working set extractDevice reuses
// across devices and windows.
type featureScratch struct {
	gaps      []float64
	endpoints map[string]struct{}
}

// summarizeWindow folds one window's gap statistics into f. A single-flow
// window observes no gap at all; its true gap is right-censored at the
// window length, so MeanGapS reports the window length rather than 0 — a
// zero would alias a sparse device with a burst of simultaneous flows.
// GapCV stays 0 there: no variation was observed.
func summarizeWindow(f *Features, gaps []float64, window time.Duration) {
	if len(gaps) > 0 {
		f.MeanGapS = stats.Mean(gaps)
		if f.MeanGapS > 0 {
			f.GapCV = stats.Std(gaps) / f.MeanGapS
		}
	} else {
		f.MeanGapS = window.Seconds()
	}
}

// extractDevice summarizes a device whose index slice is in time
// order: windows are contiguous runs of the slice, visited in ascending
// window order, with all aggregates accumulated in slice order.
func extractDevice(cap *Capture, dev string, idx []int32, window time.Duration, sc *featureScratch) []Features {
	recs := cap.Records
	var out []Features
	for lo := 0; lo < len(idx); {
		w := WindowIndex(cap.Start, recs[idx[lo]].Time, window)
		hi := lo + 1
		for hi < len(idx) && WindowIndex(cap.Start, recs[idx[hi]].Time, window) == w {
			hi++
		}
		f := Features{
			Device:      dev,
			WindowStart: cap.Start.Add(time.Duration(w) * window),
			Flows:       hi - lo,
		}
		clear(sc.endpoints)
		sc.gaps = sc.gaps[:0]
		for k := lo; k < hi; k++ {
			r := &recs[idx[k]]
			f.BytesUp += float64(r.BytesUp)
			f.BytesDown += float64(r.BytesDown)
			f.MaxFlowUp = max(f.MaxFlowUp, float64(r.BytesUp))
			sc.endpoints[r.Endpoint] = struct{}{}
			if k > lo {
				sc.gaps = append(sc.gaps, r.Time.Sub(recs[idx[k-1]].Time).Seconds())
			}
		}
		f.DistinctEndpoints = len(sc.endpoints)
		summarizeWindow(&f, sc.gaps, window)
		out = append(out, f)
		lo = hi
	}
	return out
}
