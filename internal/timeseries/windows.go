package timeseries

import (
	"fmt"
	"math"
	"time"
)

// WindowStat summarizes one analysis window of a series. NIOM-style
// detectors classify each window from these statistics.
type WindowStat struct {
	// Start is the timestamp of the window's first sample.
	Start time.Time
	// N is the number of samples in the window.
	N int
	// Mean is the window's arithmetic mean.
	Mean float64
	// Std is the window's population standard deviation.
	Std float64
	// Min and Max bound the window's samples.
	Min, Max float64
	// Range is Max - Min, a cheap burstiness proxy.
	Range float64
	// AbsDiffMean is the mean absolute first difference inside the window,
	// the burstiness measure used by threshold NIOM.
	AbsDiffMean float64
	// MaxAbsDiff is the largest absolute first difference inside the
	// window: the magnitude of its biggest switching event.
	MaxAbsDiff float64
}

// Windows partitions the series into consecutive non-overlapping windows of
// the given duration and returns one WindowStat per full window. A window
// duration that is not a multiple of the step is an error.
//
// When the width does not divide the series length, the trailing partial
// window — the last Len() mod (width/Step) samples, fewer than one full
// window — is dropped: window statistics are only meaningful over full
// windows, and a shortened final window would bias detector thresholds.
// Concatenated in order, the returned windows therefore reconstruct the
// statistics of exactly the first len(result)*(width/Step) samples (the
// partition law enforced by invariant.WindowsPartition).
func (s *Series) Windows(width time.Duration) ([]WindowStat, error) {
	if width <= 0 || width%s.Step != 0 {
		return nil, fmt.Errorf("windows: width %v not a positive multiple of step %v: %w",
			width, s.Step, ErrStepMismatch)
	}
	k := int(width / s.Step)
	n := len(s.Values) / k
	out := make([]WindowStat, 0, n)
	for w := 0; w < n; w++ {
		vals := s.Values[w*k : (w+1)*k]
		out = append(out, statOf(s.TimeAt(w*k), vals))
	}
	return out, nil
}

func statOf(start time.Time, vals []float64) WindowStat {
	st := WindowStat{Start: start, N: len(vals)}
	if len(vals) == 0 {
		return st
	}
	st.Min, st.Max = vals[0], vals[0]
	var sum float64
	for _, v := range vals {
		sum += v
		st.Min = min(st.Min, v)
		st.Max = max(st.Max, v)
	}
	st.Mean = sum / float64(len(vals))
	var ss, ad float64
	for i, v := range vals {
		d := v - st.Mean
		ss += d * d
		if i > 0 {
			step := math.Abs(v - vals[i-1])
			ad += step
			st.MaxAbsDiff = max(st.MaxAbsDiff, step)
		}
	}
	st.Std = math.Sqrt(ss / float64(len(vals)))
	if len(vals) > 1 {
		st.AbsDiffMean = ad / float64(len(vals)-1)
	}
	st.Range = st.Max - st.Min
	return st
}

// Edge is a step change detected in a series: the aggregate power rose or
// fell by Delta watts at sample Index. PowerPlay's virtual power meters are
// driven by edges.
type Edge struct {
	// Index is the sample at which the new level begins.
	Index int
	// Time is the timestamp of Index.
	Time time.Time
	// Delta is the signed magnitude of the step (after minus before).
	Delta float64
}

// DetectEdges finds step changes with |delta| >= threshold. A step is
// measured between the steady levels before and after the change: each level
// is the median of up to pad samples on that side, which suppresses spikes
// shorter than the pad. pad must be >= 1.
func (s *Series) DetectEdges(threshold float64, pad int) []Edge {
	if pad < 1 {
		pad = 1
	}
	var edges []Edge
	n := len(s.Values)
	// One pooled scratch row serves every median in the scan; the old
	// per-candidate copy allocated twice per threshold crossing.
	bp := scratchFloats.Get().(*[]float64)
	for i := 1; i < n; i++ {
		d := s.Values[i] - s.Values[i-1]
		if math.Abs(d) < threshold {
			continue
		}
		before := medianOf(s.Values[max(0, i-pad):i], bp)
		after := medianOf(s.Values[i:min(n, i+pad)], bp)
		delta := after - before
		if math.Abs(delta) < threshold {
			continue
		}
		edges = append(edges, Edge{Index: i, Time: s.TimeAt(i), Delta: delta})
	}
	scratchFloats.Put(bp)
	return edges
}

// medianOf computes the median of vals using *scratch as working space,
// growing it as needed.
func medianOf(vals []float64, scratch *[]float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	tmp := append((*scratch)[:0], vals...)
	*scratch = tmp
	// Insertion sort: pads are tiny.
	for i := 1; i < len(tmp); i++ {
		for j := i; j > 0 && tmp[j] < tmp[j-1]; j-- {
			tmp[j], tmp[j-1] = tmp[j-1], tmp[j]
		}
	}
	m := len(tmp) / 2
	if len(tmp)%2 == 1 {
		return tmp[m]
	}
	return (tmp[m-1] + tmp[m]) / 2
}

// Binary converts the series to a 0/1 indicator using threshold: samples
// >= threshold map to 1. Occupancy ground truth and detector outputs use
// binary series.
func (s *Series) Binary(threshold float64) *Series {
	out := s.Clone()
	for i, v := range out.Values {
		if v >= threshold {
			out.Values[i] = 1
		} else {
			out.Values[i] = 0
		}
	}
	return out
}
