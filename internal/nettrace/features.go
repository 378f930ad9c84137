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
// It walks the records once in time order, keeping one open window per
// device and closing it when that device's next record lands in a later
// window. The dominant producers (Simulate and Shape) emit time-sorted
// records, which are walked in place; any other capture (a hand-built one
// can be out of order) is walked through a stable time-sorted index
// permutation. Either way each device sees its records in the order a
// stable sort of its own records by time gives, so each window's
// aggregates accumulate in one fixed order and the result does not depend
// on record order.
func ExtractFeatures(cap *Capture, window time.Duration) (map[string][]Features, error) {
	if window <= 0 {
		return nil, fmt.Errorf("%w: window %v", ErrBadConfig, window)
	}
	recs := cap.Records
	var perm []int32
	byTime := func(a, b FlowRecord) int { return a.Time.Compare(b.Time) }
	if !slices.IsSortedFunc(recs, byTime) {
		perm = make([]int32, len(recs))
		for i := range perm {
			perm[i] = int32(i)
		}
		slices.SortStableFunc(perm, func(a, b int32) int { return byTime(recs[a], recs[b]) })
	}
	fw := featureWalk{start: cap.Start, window: window, byName: make(map[string]int32, 16)}
	for k := range recs {
		i := k
		if perm != nil {
			i = int(perm[k])
		}
		fw.add(&recs[i])
	}
	for d := range fw.devices {
		fw.close(int32(d))
	}
	return fw.split(), nil
}

// featureWalk is ExtractFeatures' state: one open window per device, in
// first-seen order, and every closed window in closing order.
type featureWalk struct {
	start   time.Time
	window  time.Duration
	byName  map[string]int32 // index into devices
	devices []openWindow
	// closed holds the closed windows in fixed-size chunks, so that
	// collecting them never copies one; split groups them by device.
	closed [][]closedWindow
	// gapSlab backs the first gapsCap gaps of each device's windows, one
	// allocation for every 16 devices.
	gapSlab []float64
}

// gapsCap is the gap capacity each device starts with; a window with more
// flows grows its device's gap slice past the slab.
const gapsCap = 32

// closedWindowChunk is the length of each chunk of featureWalk.closed.
const closedWindowChunk = 256

// closedWindow is one summarized window and the index of its device.
type closedWindow struct {
	f      Features
	device int32
}

// openWindow is one device's window in progress. f accumulates the open
// window's counts and volumes; it is open while f.Flows > 0.
type openWindow struct {
	f         Features
	w         int       // the open window's index
	last      time.Time // the open window's latest flow
	gaps      []float64
	endpoints map[string]struct{}
	n         int // windows closed so far
}

// add folds the next record in time order into its device's open window.
func (fw *featureWalk) add(r *FlowRecord) {
	di, ok := fw.byName[r.Device]
	if !ok {
		di = int32(len(fw.devices))
		fw.byName[r.Device] = di
		if len(fw.gapSlab) < gapsCap {
			fw.gapSlab = make([]float64, 16*gapsCap)
		}
		fw.devices = append(fw.devices, openWindow{
			f:         Features{Device: r.Device},
			gaps:      fw.gapSlab[:0:gapsCap],
			endpoints: make(map[string]struct{}, 4),
		})
		fw.gapSlab = fw.gapSlab[gapsCap:]
	}
	d := &fw.devices[di]
	w := WindowIndex(fw.start, r.Time, fw.window)
	if d.f.Flows > 0 && w != d.w {
		fw.close(di)
	}
	if d.f.Flows == 0 {
		d.w = w
		d.f.WindowStart = fw.start.Add(time.Duration(w) * fw.window)
	} else {
		d.gaps = append(d.gaps, r.Time.Sub(d.last).Seconds())
	}
	d.f.Flows++
	d.f.BytesUp += float64(r.BytesUp)
	d.f.BytesDown += float64(r.BytesDown)
	d.f.MaxFlowUp = max(d.f.MaxFlowUp, float64(r.BytesUp))
	d.endpoints[r.Endpoint] = struct{}{}
	d.last = r.Time
}

// close summarizes device di's open window, if any, onto the closed
// windows and empties it.
func (fw *featureWalk) close(di int32) {
	d := &fw.devices[di]
	if d.f.Flows == 0 {
		return
	}
	d.f.DistinctEndpoints = len(d.endpoints)
	summarizeWindow(&d.f, d.gaps, fw.window)
	if n := len(fw.closed); n == 0 || len(fw.closed[n-1]) == closedWindowChunk {
		fw.closed = append(fw.closed, make([]closedWindow, 0, closedWindowChunk))
	}
	last := &fw.closed[len(fw.closed)-1]
	*last = append(*last, closedWindow{f: d.f, device: di})
	d.n++
	d.f = Features{Device: d.f.Device}
	clear(d.endpoints)
	d.gaps = d.gaps[:0]
}

// split groups the closed windows by device into one backing array, each
// device's windows in closing order, which is time order.
func (fw *featureWalk) split() map[string][]Features {
	out := make(map[string][]Features, len(fw.devices))
	total := 0
	for i := range fw.devices {
		total += fw.devices[i].n
	}
	slab := make([]Features, total)
	next := make([]int, len(fw.devices))
	o := 0
	for i := range fw.devices {
		d := &fw.devices[i]
		out[d.f.Device] = slab[o : o+d.n : o+d.n]
		next[i] = o
		o += d.n
	}
	for _, chunk := range fw.closed {
		for _, c := range chunk {
			slab[next[c.device]] = c.f
			next[c.device]++
		}
	}
	return out
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
