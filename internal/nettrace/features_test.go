package nettrace

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestWindowIndexFloors pins the flooring contract: instants before the
// anchor map to negative windows, never onto window 0. Truncating division
// folded the whole (start-width, start) interval into window 0 — the same
// defect family as the Series.IndexOf fix.
func TestWindowIndexFloors(t *testing.T) {
	start := time.Date(2017, 6, 5, 0, 0, 0, 0, time.UTC)
	w := time.Hour
	cases := []struct {
		offset time.Duration
		want   int
	}{
		{-2 * time.Hour, -2},
		{-time.Hour, -1},
		{-time.Second, -1}, // the pre-fix failure: truncation gave 0
		{-time.Nanosecond, -1},
		{0, 0},
		{time.Second, 0},
		{time.Hour - time.Nanosecond, 0},
		{time.Hour, 1},
	}
	for _, tc := range cases {
		if got := WindowIndex(start, start.Add(tc.offset), w); got != tc.want {
			t.Errorf("WindowIndex(start%+v) = %d, want %d", tc.offset, got, tc.want)
		}
	}
}

// TestExtractFeaturesPreStartRecords is the regression test for the window
// truncation bug: a record just before cap.Start must land in its own
// (negative-index) window, not fold into window 0 alongside genuine
// first-window records.
func TestExtractFeaturesPreStartRecords(t *testing.T) {
	start := time.Date(2017, 6, 5, 0, 0, 0, 0, time.UTC)
	cap := &Capture{
		Start: start,
		End:   start.Add(2 * time.Hour),
		Devices: []Device{
			{Name: "camera-01", Class: ClassCamera},
		},
		Records: []FlowRecord{
			{Time: start.Add(-30 * time.Second), Device: "camera-01", Endpoint: "a", BytesUp: 100, BytesDown: 10},
			{Time: start.Add(30 * time.Second), Device: "camera-01", Endpoint: "a", BytesUp: 200, BytesDown: 20},
		},
	}
	feats, err := ExtractFeatures(cap, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	fs := feats["camera-01"]
	if len(fs) != 2 {
		t.Fatalf("windows = %d, want 2 (pre-start record must not fold into window 0); got %+v", len(fs), fs)
	}
	if !fs[0].WindowStart.Equal(start.Add(-time.Hour)) {
		t.Errorf("first window starts at %v, want %v", fs[0].WindowStart, start.Add(-time.Hour))
	}
	if fs[0].Flows != 1 || fs[1].Flows != 1 {
		t.Errorf("flows = %d/%d, want 1/1", fs[0].Flows, fs[1].Flows)
	}
	if fs[1].BytesUp != 200 {
		t.Errorf("window 0 BytesUp = %v, want 200 (must not absorb the pre-start record)", fs[1].BytesUp)
	}
}

// TestExtractFeaturesSingleFlowWindow is the regression test for the
// single-flow gap features: a lone flow in a window observes no gap, so its
// MeanGapS is the right-censored window length — not 0, which would alias
// the sparsest possible device with a burst of simultaneous flows. The
// audit behind this test also pinned that stats.Mean/Std of the empty gaps
// slice return 0 (not NaN), so no NaN can reach Vector().
func TestExtractFeaturesSingleFlowWindow(t *testing.T) {
	start := time.Date(2017, 6, 5, 0, 0, 0, 0, time.UTC)
	window := time.Hour
	cap := &Capture{
		Start:   start,
		End:     start.Add(window),
		Devices: []Device{{Name: "vacuum-01", Class: ClassVacuum}},
		Records: []FlowRecord{
			{Time: start.Add(10 * time.Minute), Device: "vacuum-01", Endpoint: "a", BytesUp: 500, BytesDown: 50},
		},
	}
	feats, err := ExtractFeatures(cap, window)
	if err != nil {
		t.Fatal(err)
	}
	fs := feats["vacuum-01"]
	if len(fs) != 1 || fs[0].Flows != 1 {
		t.Fatalf("features = %+v, want one single-flow window", fs)
	}
	if got, want := fs[0].MeanGapS, window.Seconds(); got != want {
		t.Errorf("MeanGapS = %v, want censored window length %v", got, want)
	}
	if fs[0].GapCV != 0 {
		t.Errorf("GapCV = %v, want 0 (no gap variation observed)", fs[0].GapCV)
	}
	for i, v := range fs[0].Vector() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("Vector()[%d] = %v", i, v)
		}
	}
}

// TestExtractFeaturesSimultaneousFlows pins the other side of the censoring
// convention: multiple flows at the same instant genuinely have zero gaps,
// and keep MeanGapS = 0.
func TestExtractFeaturesSimultaneousFlows(t *testing.T) {
	start := time.Date(2017, 6, 5, 0, 0, 0, 0, time.UTC)
	at := start.Add(5 * time.Minute)
	cap := &Capture{
		Start:   start,
		End:     start.Add(time.Hour),
		Devices: []Device{{Name: "hub-01", Class: ClassHub}},
		Records: []FlowRecord{
			{Time: at, Device: "hub-01", Endpoint: "a", BytesUp: 10, BytesDown: 1},
			{Time: at, Device: "hub-01", Endpoint: "b", BytesUp: 20, BytesDown: 2},
			{Time: at, Device: "hub-01", Endpoint: "c", BytesUp: 30, BytesDown: 3},
		},
	}
	feats, err := ExtractFeatures(cap, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	fs := feats["hub-01"]
	if len(fs) != 1 || fs[0].Flows != 3 {
		t.Fatalf("features = %+v, want one three-flow window", fs)
	}
	if fs[0].MeanGapS != 0 || fs[0].GapCV != 0 {
		t.Errorf("gap features = %v/%v, want 0/0 for a simultaneous burst", fs[0].MeanGapS, fs[0].GapCV)
	}
}

// TestExtractFeaturesAnyRecordOrder pins the single feature kernel's order
// independence: ExtractFeatures over shuffled, reversed and grouped-by-device
// copies of a capture equals its result over the time-sorted records, field
// for field. The capture carries a compromise, a burst of simultaneous flows
// and a record from before the capture start, so ties and a negative window
// both go through the out-of-order path.
func TestExtractFeaturesAnyRecordOrder(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		cfg := DefaultConfig(seed)
		cfg.Days = 1
		at := cfg.Start.Add(12 * time.Hour)
		cfg.Compromises = []Compromise{
			{Device: "camera-02", At: at, Kind: CompromiseExfil},
			{Device: "smart-plug-03", At: at, Kind: CompromiseScan},
		}
		cap := simulate(t, cfg)
		burst := cfg.Start.Add(7*time.Hour + 5*time.Minute)
		cap.Records = append(cap.Records,
			FlowRecord{Time: cfg.Start.Add(-30 * time.Second), Device: "hub-01", Endpoint: "early", BytesUp: 700, BytesDown: 70},
			FlowRecord{Time: burst, Device: "hub-01", Endpoint: "a", BytesUp: 10, BytesDown: 1},
			FlowRecord{Time: burst, Device: "hub-01", Endpoint: "b", BytesUp: 20, BytesDown: 2},
			FlowRecord{Time: burst, Device: "hub-01", Endpoint: "c", BytesUp: 30, BytesDown: 3},
		)
		sorted := slices.Clone(cap.Records)
		slices.SortStableFunc(sorted, func(a, b FlowRecord) int { return a.Time.Compare(b.Time) })
		rng := rand.New(rand.NewSource(seed))
		shuffled := slices.Clone(sorted)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		reversed := slices.Clone(sorted)
		slices.Reverse(reversed)
		byDevice := slices.Clone(shuffled)
		slices.SortStableFunc(byDevice, func(a, b FlowRecord) int { return strings.Compare(a.Device, b.Device) })

		for _, window := range []time.Duration{15 * time.Minute, time.Hour} {
			cap.Records = sorted
			want, err := ExtractFeatures(cap, window)
			if err != nil {
				t.Fatal(err)
			}
			if fs := want["hub-01"]; len(fs) == 0 || !fs[0].WindowStart.Before(cfg.Start) {
				t.Fatalf("seed %d: the pre-start record did not open a window before the capture start", seed)
			}
			for name, recs := range map[string][]FlowRecord{"shuffled": shuffled, "reversed": reversed, "by-device": byDevice} {
				cap.Records = slices.Clone(recs)
				got, err := ExtractFeatures(cap, window)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d %s: %d devices, sorted %d", seed, name, len(got), len(want))
				}
				for dev, wfs := range want {
					gfs := got[dev]
					if len(gfs) != len(wfs) {
						t.Fatalf("seed %d %s window %v: %s has %d windows, sorted %d", seed, name, window, dev, len(gfs), len(wfs))
					}
					for i := range wfs {
						if gfs[i] != wfs[i] {
							t.Fatalf("seed %d %s window %v: %s window %d = %+v, sorted %+v", seed, name, window, dev, i, gfs[i], wfs[i])
						}
					}
				}
			}
		}
	}
}
