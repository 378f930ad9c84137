package nettrace

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// referenceExtractFeatures is the per-device ExtractFeatures that the
// one-pass walk replaced, kept verbatim as the exactness oracle: record
// indices grouped per device into one slab, each device's slice
// stable-sorted by time when out of order, then summarized by a run walk.
func referenceExtractFeatures(cap *Capture, window time.Duration) (map[string][]Features, error) {
	if window <= 0 {
		return nil, fmt.Errorf("%w: window %v", ErrBadConfig, window)
	}
	recs := cap.Records

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
	sc := &referenceScratch{endpoints: make(map[string]struct{}, 16)}
	byTime := func(a, b int32) int { return recs[a].Time.Compare(recs[b].Time) }
	for dev, idx := range byDev {
		if !slices.IsSortedFunc(idx, byTime) {
			slices.SortStableFunc(idx, byTime)
		}
		out[dev] = referenceExtractDevice(cap, dev, idx, window, sc)
	}
	return out, nil
}

type referenceScratch struct {
	gaps      []float64
	endpoints map[string]struct{}
}

func referenceExtractDevice(cap *Capture, dev string, idx []int32, window time.Duration, sc *referenceScratch) []Features {
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

// sameFeatures reports the first difference between two features, with
// every float field compared bit for bit.
func sameFeatures(got, want Features) error {
	if got.Device != want.Device || got.WindowStart != want.WindowStart ||
		got.Flows != want.Flows || got.DistinctEndpoints != want.DistinctEndpoints {
		return fmt.Errorf("got %+v, reference %+v", got, want)
	}
	for _, f := range [][2]float64{
		{got.BytesUp, want.BytesUp},
		{got.BytesDown, want.BytesDown},
		{got.MeanGapS, want.MeanGapS},
		{got.GapCV, want.GapCV},
		{got.MaxFlowUp, want.MaxFlowUp},
	} {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			return fmt.Errorf("got %+v, reference %+v", got, want)
		}
	}
	return nil
}

// TestExtractFeaturesMatchesReference pins the one-pass ExtractFeatures to
// the per-device reference bit for bit, at 10-minute and 1-hour windows,
// over a capture with all three compromises, the lab capture, a shuffled
// copy, and records before the capture start and with tied timestamps.
func TestExtractFeaturesMatchesReference(t *testing.T) {
	cfg := DefaultConfig(9)
	cfg.Days = 2
	at := cfg.Start.Add(30 * time.Hour)
	cfg.Compromises = []Compromise{
		{Device: "camera-02", At: at, Kind: CompromiseExfil},
		{Device: "smart-plug-03", At: at, Kind: CompromiseScan},
		{Device: "bulb-05", At: at, Kind: CompromiseBot},
	}
	compromised := simulate(t, cfg)
	lab, err := SimulateLab(10)
	if err != nil {
		t.Fatal(err)
	}

	edges := &Capture{Start: compromised.Start, End: compromised.End, Devices: compromised.Devices,
		Records: slices.Clone(compromised.Records)}
	tie := cfg.Start.Add(5*time.Hour + 10*time.Minute)
	edges.Records = append(edges.Records,
		FlowRecord{Time: cfg.Start.Add(-90 * time.Minute), Device: "hub-01", Endpoint: "early", BytesUp: 700, BytesDown: 70},
		FlowRecord{Time: cfg.Start.Add(-time.Second), Device: "hub-01", Endpoint: "late", BytesUp: 9, BytesDown: 1},
		FlowRecord{Time: tie, Device: "smart-tv-01", Endpoint: "a", BytesUp: 10, BytesDown: 1},
		FlowRecord{Time: tie, Device: "smart-tv-01", Endpoint: "b", BytesUp: 20, BytesDown: 2},
		FlowRecord{Time: tie, Device: "lock-01", Endpoint: "a", BytesUp: 30, BytesDown: 3},
		FlowRecord{Time: tie, Device: "smart-tv-01", Endpoint: "a", BytesUp: 1 << 40, BytesDown: 4},
	)
	rng := rand.New(rand.NewSource(22))
	shuffled := &Capture{Start: edges.Start, End: edges.End, Devices: edges.Devices,
		Records: slices.Clone(edges.Records)}
	rng.Shuffle(len(shuffled.Records), func(i, j int) {
		shuffled.Records[i], shuffled.Records[j] = shuffled.Records[j], shuffled.Records[i]
	})

	for _, c := range []struct {
		name string
		cap  *Capture
	}{
		{"compromised", compromised},
		{"lab", lab},
		{"edges", edges},
		{"shuffled", shuffled},
	} {
		for _, window := range []time.Duration{10 * time.Minute, time.Hour} {
			want, err := referenceExtractFeatures(c.cap, window)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ExtractFeatures(c.cap, window)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s window %v: %d devices, reference %d", c.name, window, len(got), len(want))
			}
			for dev, wfs := range want {
				gfs := got[dev]
				if len(gfs) != len(wfs) {
					t.Fatalf("%s window %v: %s has %d windows, reference %d", c.name, window, dev, len(gfs), len(wfs))
				}
				for i := range wfs {
					if err := sameFeatures(gfs[i], wfs[i]); err != nil {
						t.Fatalf("%s window %v: %s window %d: %v", c.name, window, dev, i, err)
					}
				}
			}
		}
	}
}
