package niom

import (
	"fmt"
	"math"
	"sort"
	"time"

	"privmem/internal/timeseries"
)

// WStat is the compact per-window statistic pair the detectors actually
// consume: every classification rule in this package reads only a window's
// mean power and its largest switching event. The online detector keeps a
// small ring of these (16 bytes per window) instead of buffered samples or
// full timeseries.WindowStat records, which is what makes per-home state at
// fleet scale affordable.
type WStat struct {
	// Mean is the window's arithmetic mean power in watts.
	Mean float64
	// MaxAbsDiff is the largest absolute first difference inside the window.
	MaxAbsDiff float64
}

// Scratch holds the reusable working buffers of the shared label pipeline.
// Batch detectors allocate one per call; fleet ingest workers own one each
// and reuse it across every home and window they process, so the steady-state
// hot path allocates nothing. A Scratch is not safe for concurrent use.
type Scratch struct {
	view   []WStat
	means  []float64
	sorted []float64
	labels []float64
	smooth []float64
}

// grow returns buf resized to n, reallocating only when capacity is short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// compactStats projects full window statistics down to the detector's compact
// form. The copied fields are bit-identical to the originals, so a pipeline
// run over the projection equals the historical full-stat computation.
func compactStats(ws []timeseries.WindowStat, buf []WStat) []WStat {
	out := grow(buf, len(ws))
	for i, w := range ws {
		out[i] = WStat{Mean: w.Mean, MaxAbsDiff: w.MaxAbsDiff}
	}
	return out
}

// quantileSorted replicates stats.Quantile bit for bit — same copy, same
// sort.Float64s, same interpolation arithmetic — but sorts into a caller
// buffer instead of allocating. The replication is load-bearing: the golden
// equivalence tests require the streaming detector's baseline cut to equal
// the batch detector's exactly, and two quantile implementations that differ
// even in summation order would drift on ties.
func quantileSorted(buf *[]float64, xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	tmp := grow(*buf, len(xs))
	*buf = tmp
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

// baselineMeanW estimates the background-appliance power floor as the mean of
// the quietest windows: the mean, in window order, of window means at or
// below the configured quantile cut. Identical accumulation order to
// stats.Mean over the same subsequence.
func baselineMeanW(ws []WStat, quantile float64, sc *Scratch) float64 {
	means := grow(sc.means, len(ws))
	sc.means = means
	for i, w := range ws {
		means[i] = w.Mean
	}
	cut := quantileSorted(&sc.sorted, means, quantile)
	var sum float64
	var n int
	for _, w := range ws {
		if w.Mean <= cut {
			sum += w.Mean
			n++
		}
	}
	if n == 0 {
		var all float64
		for _, m := range means {
			all += m
		}
		return all / float64(len(means))
	}
	return sum / float64(n)
}

// rawLabels classifies each window independently against the baseline-derived
// mean threshold and the edge threshold — the pre-smoothing evidence shared
// by both detectors. The result aliases sc.labels.
func rawLabels(ws []WStat, cfg Config, sc *Scratch) []float64 {
	thresh := baselineMeanW(ws, cfg.BaselineQuantile, sc) + cfg.MeanMarginW
	labels := grow(sc.labels, len(ws))
	sc.labels = labels
	for i, w := range ws {
		if w.Mean > thresh || w.MaxAbsDiff >= cfg.EdgeThresholdW {
			labels[i] = 1
		} else {
			labels[i] = 0
		}
	}
	return labels
}

// smoothMajorityInto is smoothMajority writing into a caller buffer: each
// label becomes the majority over a centered width-w neighborhood (ties keep
// the original label). With w <= 1 it returns labels unchanged.
func smoothMajorityInto(dst *[]float64, labels []float64, w int) []float64 {
	if w <= 1 {
		return labels
	}
	half := w / 2
	out := grow(*dst, len(labels))
	*dst = out
	for i := range labels {
		lo := max(0, i-half)
		hi := min(len(labels), i+half+1)
		var ones int
		for j := lo; j < hi; j++ {
			if labels[j] >= 0.5 {
				ones++
			}
		}
		n := hi - lo
		switch {
		case 2*ones > n:
			out[i] = 1
		case 2*ones < n:
			out[i] = 0
		default:
			out[i] = labels[i]
		}
	}
	return out
}

// thresholdLabels is the full threshold-detector pipeline over a window view:
// baseline, per-window rules, majority smoothing. Both DetectThreshold and
// the streaming detector run exactly this function, which is how the golden
// tests can demand bit-identity rather than approximate agreement.
func thresholdLabels(ws []WStat, cfg Config, sc *Scratch) []float64 {
	return smoothMajorityInto(&sc.smooth, rawLabels(ws, cfg, sc), cfg.SmoothWindows)
}

// Mode selects the detector a Stream runs per window boundary. ModeThreshold
// is the only one; NewStream rejects any other value.
type Mode int

// ModeThreshold runs the threshold detector of [1] over the trailing
// history at each boundary.
const ModeThreshold Mode = 0

// Stream is the online NIOM detector: power samples are pushed one at a time
// and at every completed window it emits the occupancy label the batch
// detector would assign to that window given only the trailing `history`
// windows. Its state is one open-window accumulator plus a ring of history
// WStats — fixed at construction, independent of how long the stream runs —
// which is the bounded-memory contract the fleet pipeline builds on.
//
// Two laws pin the stream to the batch detector, both enforced bit-exactly
// by the golden tests:
//
//   - a Stream fed a series sample-by-sample emits exactly
//     SlidingThreshold of that series, label for label;
//   - with history >= the total window count, the final emitted label equals
//     the final window's label from DetectThreshold (smoothing at the last
//     window is one-sided in both, so the trailing view sees everything the
//     batch detector saw).
//
// A Stream is not safe for concurrent use; each home owns one.
type Stream struct {
	cfg     Config
	k       int // samples per window
	history int
	ring    []WStat
	windows int // windows closed so far

	// Open-window accumulators, replicating timeseries.statOf's order: sum
	// in sample order, MaxAbsDiff as a running math.Max over in-window first
	// differences (the boundary-crossing difference is never counted).
	fill  int
	sum   float64
	prev  float64
	maxAD float64
}

// NewStream returns an online detector for a power stream sampled every step.
// The configured window is rounded up to a multiple of step exactly like the
// batch detectors. history is the number of trailing windows the detector
// conditions on (its baseline horizon).
func NewStream(cfg Config, step time.Duration, history int, mode Mode) (*Stream, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("niom stream: %w", err)
	}
	if step <= 0 {
		return nil, fmt.Errorf("niom stream: %w: step %v", ErrBadConfig, step)
	}
	if history < 1 {
		return nil, fmt.Errorf("niom stream: %w: history %d", ErrBadConfig, history)
	}
	if mode != ModeThreshold {
		return nil, fmt.Errorf("niom stream: %w: mode %d", ErrBadConfig, mode)
	}
	cfg.Window = effectiveWindow(cfg.Window, step)
	return &Stream{
		cfg:     cfg,
		k:       int(cfg.Window / step),
		history: history,
		ring:    make([]WStat, history),
	}, nil
}

// Push feeds one power sample. When the sample completes a window, Push
// labels that window over the trailing history and returns (label, true);
// otherwise it returns (0, false). sc may be nil (a temporary is allocated);
// passing a reused Scratch makes the boundary path allocation-free.
func (s *Stream) Push(v float64, sc *Scratch) (label float64, boundary bool) {
	if s.fill > 0 {
		s.maxAD = max(s.maxAD, math.Abs(v-s.prev))
	}
	s.sum += v
	s.prev = v
	s.fill++
	if s.fill < s.k {
		return 0, false
	}
	w := WStat{Mean: s.sum / float64(s.k), MaxAbsDiff: s.maxAD}
	s.fill, s.sum, s.maxAD = 0, 0, 0
	s.ring[s.windows%s.history] = w
	s.windows++
	if sc == nil {
		sc = &Scratch{}
	}
	m := min(s.windows, s.history)
	view := grow(sc.view, m)
	sc.view = view
	for i := 0; i < m; i++ {
		view[i] = s.ring[(s.windows-m+i)%s.history]
	}
	lbls := thresholdLabels(view, s.cfg, sc)
	return lbls[len(lbls)-1], true
}

// SlidingThreshold is the batch counterpart of a Stream: for each full
// window i of the series it runs the threshold pipeline over the trailing
// min(i+1, history) windows and records the final label. Golden tests hold
// a Stream to this, bit for bit.
func SlidingThreshold(power *timeseries.Series, cfg Config, history int) ([]float64, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("niom sliding: %w", err)
	}
	if history < 1 {
		return nil, fmt.Errorf("niom sliding: %w: history %d", ErrBadConfig, history)
	}
	cfg.Window = effectiveWindow(cfg.Window, power.Step)
	ws, err := power.Windows(cfg.Window)
	if err != nil {
		return nil, fmt.Errorf("niom sliding: %w", err)
	}
	all := compactStats(ws, nil)
	sc := &Scratch{}
	out := make([]float64, len(ws))
	for i := range all {
		lbls := thresholdLabels(all[max(0, i+1-history):i+1], cfg, sc)
		out[i] = lbls[len(lbls)-1]
	}
	return out, nil
}
