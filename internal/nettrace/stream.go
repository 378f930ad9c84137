package nettrace

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"privmem/internal/stats"
)

// ErrOutOfOrder indicates a flow record whose window precedes one the
// accumulator already closed. Streaming extraction requires records in
// non-decreasing time order — exactly the order of Capture.Records, which
// Simulate sorts — because a closed window's features have already been
// emitted downstream and cannot be revised.
var ErrOutOfOrder = errors.New("nettrace: flow records out of order")

// FeatureAccumulator extracts one device's per-window traffic features
// incrementally: flow records are added in time order and each window's
// Features are emitted the moment a record crosses into a later window.
// Its memory is bounded by the flows of the single open window (empty
// windows hold nothing), independent of capture duration — the contract the
// fleet ingest path relies on.
//
// The golden equivalence law, enforced bit-exactly by tests: feeding every
// record of Capture.Records (in slice order, demultiplexed per device)
// through accumulators and flushing reproduces ExtractFeatures — same
// windows, same Features values, same order. That holds because finalize
// performs the identical arithmetic in the identical order: times sorted
// with the same comparator, gaps in sorted order, stats.Mean/stats.Std on
// the same sequence, and the same single-flow right-censoring rule.
//
// A FeatureAccumulator is not safe for concurrent use.
type FeatureAccumulator struct {
	device string
	start  time.Time
	window time.Duration

	open bool
	cur  int // open window index

	times     []time.Time
	up, down  float64
	maxUp     float64
	endpoints map[string]bool
	gaps      []float64 // finalize scratch
}

// NewFeatureAccumulator returns an accumulator for one device over the
// window tiling anchored at start.
func NewFeatureAccumulator(device string, start time.Time, window time.Duration) (*FeatureAccumulator, error) {
	if window <= 0 {
		return nil, fmt.Errorf("%w: window %v", ErrBadConfig, window)
	}
	if device == "" {
		return nil, fmt.Errorf("%w: empty device", ErrBadConfig)
	}
	return &FeatureAccumulator{
		device:    device,
		start:     start,
		window:    window,
		endpoints: map[string]bool{},
	}, nil
}

// Add feeds one flow record. When the record opens a later window than the
// current one, the finished window's Features are returned with ok=true;
// otherwise ok is false. Records must not regress to an earlier window.
func (a *FeatureAccumulator) Add(r FlowRecord) (f Features, ok bool, err error) {
	if r.Device != a.device {
		return f, false, fmt.Errorf("%w: record for %q fed to accumulator for %q",
			ErrBadConfig, r.Device, a.device)
	}
	w := WindowIndex(a.start, r.Time, a.window)
	switch {
	case !a.open:
		a.open = true
		a.cur = w
	case w < a.cur:
		return f, false, fmt.Errorf("%w: window %d after %d", ErrOutOfOrder, w, a.cur)
	case w > a.cur:
		f, ok = a.finalize(), true
		a.cur = w
	}
	a.times = append(a.times, r.Time)
	a.up += float64(r.BytesUp)
	a.down += float64(r.BytesDown)
	a.endpoints[r.Endpoint] = true
	a.maxUp = max(a.maxUp, float64(r.BytesUp))
	return f, ok, nil
}

// Flush emits the open window's Features, if any. The accumulator remains
// usable for later (non-regressing) records.
func (a *FeatureAccumulator) Flush() (Features, bool) {
	if !a.open || len(a.times) == 0 {
		return Features{}, false
	}
	return a.finalize(), true
}

// finalize summarizes the open window with ExtractFeatures' exact
// arithmetic, resets the per-window state, and returns the Features.
func (a *FeatureAccumulator) finalize() Features {
	sort.Slice(a.times, func(i, j int) bool { return a.times[i].Before(a.times[j]) })
	gaps := a.gaps[:0]
	for i := 1; i < len(a.times); i++ {
		gaps = append(gaps, a.times[i].Sub(a.times[i-1]).Seconds())
	}
	a.gaps = gaps
	f := Features{
		Device:            a.device,
		WindowStart:       a.start.Add(time.Duration(a.cur) * a.window),
		Flows:             len(a.times),
		BytesUp:           a.up,
		BytesDown:         a.down,
		DistinctEndpoints: len(a.endpoints),
		MaxFlowUp:         a.maxUp,
	}
	if len(gaps) > 0 {
		f.MeanGapS = stats.Mean(gaps)
		if f.MeanGapS > 0 {
			f.GapCV = stats.Std(gaps) / f.MeanGapS
		}
	} else {
		// Single-flow window: right-censored gap, see Features.MeanGapS.
		f.MeanGapS = a.window.Seconds()
	}
	a.times = a.times[:0]
	a.up, a.down, a.maxUp = 0, 0, 0
	clear(a.endpoints)
	return f
}
