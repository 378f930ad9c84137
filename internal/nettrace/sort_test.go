package nettrace

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// pdqsortByTime is the sort Simulate used before the run merge, kept
// verbatim as the oracle: it orders records by Time exactly as
//
//	sort.Slice(recs, func(i, j int) bool { return recs[i].Time.Before(recs[j].Time) })
//
// does, tied timestamps included, without moving 72-byte records through
// the sort. slices.SortFunc and sort.Slice are generated from one pdqsort
// template (sort/gen_sort_variants.go), so sorting 16-byte (time, index)
// keys with the same comparison yields the same permutation; the records
// are then permuted in place by following its cycles.
func pdqsortByTime(recs []FlowRecord) {
	type key struct {
		sec  int64
		nsec int32
		idx  int32
	}
	keys := make([]key, len(recs))
	for i := range recs {
		t := recs[i].Time
		keys[i] = key{sec: t.Unix(), nsec: int32(t.Nanosecond()), idx: int32(i)}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := cmp.Compare(a.sec, b.sec); c != 0 {
			return c
		}
		return cmp.Compare(a.nsec, b.nsec)
	})
	// Position i takes the record at keys[i].idx. Each cycle is rotated
	// once; a placed position is marked by pointing its key at itself.
	for i := range keys {
		if int(keys[i].idx) == i {
			continue
		}
		r := recs[i]
		j := i
		for {
			src := int(keys[j].idx)
			keys[j].idx = int32(j)
			if src == i {
				recs[j] = r
				break
			}
			recs[j] = recs[src]
			j = src
		}
	}
}

// byTime orders records by Time alone.
func byTime(a, b FlowRecord) int { return a.Time.Compare(b.Time) }

// byRecord is a total order on record contents.
func byRecord(a, b FlowRecord) int {
	return cmp.Or(a.Time.Compare(b.Time), strings.Compare(a.Device, b.Device),
		strings.Compare(a.Endpoint, b.Endpoint), cmp.Compare(a.BytesUp, b.BytesUp),
		cmp.Compare(a.BytesDown, b.BytesDown))
}

// sortConfigs are the captures the sort laws run on: seeds 1–3 with and
// without all three compromise kinds, and the two captures the facade's
// NewNetworkWorld(42, 1, nil) builds.
func sortConfigs() map[string]Config {
	out := map[string]Config{}
	for _, seed := range []int64{1, 2, 3} {
		cfg := DefaultConfig(seed)
		cfg.Days = 1
		out[fmt.Sprintf("benign-%d", seed)] = cfg
		at := cfg.Start.Add(12 * time.Hour)
		cfg.Compromises = []Compromise{
			{Device: "camera-02", At: at, Kind: CompromiseExfil},
			{Device: "smart-plug-03", At: at, Kind: CompromiseScan},
			{Device: "bulb-05", At: at, Kind: CompromiseBot},
		}
		out[fmt.Sprintf("compromised-%d", seed)] = cfg
	}
	facade := DefaultConfig(42)
	facade.Days = 1
	out["facade-victim"] = facade
	lab := DefaultConfig(43)
	lab.Days = 2
	lab.Counts = map[Class]int{}
	for _, c := range Classes() {
		lab.Counts[c] = 1
	}
	out["facade-lab"] = lab
	return out
}

func generated(t *testing.T, cfg Config) []FlowRecord {
	t.Helper()
	cap, err := generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cap.Records
}

// TestSortByTimeMatchesPdqsortOracle: on the generation order Simulate
// sorts, the run merge and the pdqsort it replaced put the same time at
// every index, and each group of tied records holds the same records; only
// the order within a tie group may differ.
func TestSortByTimeMatchesPdqsortOracle(t *testing.T) {
	for name, cfg := range sortConfigs() {
		gen := generated(t, cfg)
		want := slices.Clone(gen)
		pdqsortByTime(want)
		got := slices.Clone(gen)
		sortByTime(got)
		if len(got) != len(want) {
			t.Fatalf("%s: %d records, oracle has %d", name, len(got), len(want))
		}
		ties, reordered := 0, 0
		for i := 0; i < len(got); {
			j := i + 1
			for j < len(got) && got[j].Time.Equal(got[i].Time) {
				j++
			}
			for k := i; k < j; k++ {
				if !want[k].Time.Equal(got[i].Time) {
					t.Fatalf("%s: record %d at %v, oracle has %v", name, k, got[k].Time, want[k].Time)
				}
			}
			if j < len(want) && want[j].Time.Equal(got[i].Time) {
				t.Fatalf("%s: tie group at %d is longer in the oracle", name, i)
			}
			if j-i > 1 {
				ties++
				if !slices.Equal(got[i:j], want[i:j]) {
					reordered++
				}
				g, w := slices.Clone(got[i:j]), slices.Clone(want[i:j])
				slices.SortFunc(g, byRecord)
				slices.SortFunc(w, byRecord)
				if !slices.Equal(g, w) {
					t.Fatalf("%s: tie group at %d holds other records than the oracle's", name, i)
				}
			}
			i = j
		}
		if ties == 0 {
			t.Fatalf("%s: no tied timestamps; the law is untested", name)
		}
		t.Logf("%s: %d records, %d tie groups, %d ordered differently from pdqsort", name, len(got), ties, reordered)
	}
}

// TestSortByTimeIsStableSort pins sortByTime to a stable sort by time from
// several input orders of captures whose tied timestamps span devices.
func TestSortByTimeIsStableSort(t *testing.T) {
	for name, cfg := range sortConfigs() {
		gen := generated(t, cfg)
		sorted := simulate(t, cfg).Records
		rng := rand.New(rand.NewSource(cfg.Seed))
		shuffled := slices.Clone(gen)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		reversed := slices.Clone(gen)
		slices.Reverse(reversed)
		byDevice := slices.Clone(sorted)
		slices.SortStableFunc(byDevice, func(a, b FlowRecord) int { return strings.Compare(a.Device, b.Device) })
		inputs := map[string][]FlowRecord{
			"generated": gen, "sorted": sorted, "shuffled": shuffled,
			"reversed": reversed, "by-device": byDevice,
		}
		for order, in := range inputs {
			want := slices.Clone(in)
			slices.SortStableFunc(want, byTime)
			got := slices.Clone(in)
			sortByTime(got)
			ties := 0
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s %s: record %d = %+v, stable sort gives %+v", name, order, i, got[i], want[i])
				}
				if i > 0 && want[i].Time.Equal(want[i-1].Time) {
					ties++
				}
			}
			if ties == 0 {
				t.Fatalf("%s %s: no tied timestamps; the tie order is untested", name, order)
			}
		}
	}
}

// FuzzSortByTime checks the run merge against a stable sort on up to 256
// records decoded from the input: each byte pair picks one of eight
// offsets on a nanosecond, second or decade scale (so times tie heavily,
// runs break anywhere and keys reach decades either side of the first
// record) and one of four devices; BytesUp numbers the records, so any
// move of a tied record shows.
func FuzzSortByTime(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0})
	f.Add([]byte{0, 0, 1, 1, 2, 2, 3, 3})
	f.Add([]byte{7, 0, 6, 1, 5, 2, 4, 3, 3, 0, 2, 1, 1, 2, 0, 3})
	f.Add([]byte{0x41, 0, 0x81, 1, 0xc1, 2, 0x47, 3, 0x40, 0, 0x87, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			// Longer inputs add no merge path and only slow the
			// minimization of every interesting input.
			return
		}
		base := time.Date(2017, 6, 5, 0, 0, 0, 0, time.UTC)
		scales := []time.Duration{time.Nanosecond, time.Second, 10 * 365 * 24 * time.Hour, time.Second}
		recs := make([]FlowRecord, len(data)/2)
		for i := range recs {
			a, b := data[2*i], data[2*i+1]
			off := time.Duration(int(a&7)-3) * scales[a>>6]
			recs[i] = FlowRecord{
				Time:     base.Add(off),
				Device:   "dev-" + string(rune('a'+b&3)),
				Endpoint: "ep",
				BytesUp:  i,
			}
		}
		want := slices.Clone(recs)
		slices.SortStableFunc(want, byTime)
		sortByTime(recs)
		if !slices.Equal(recs, want) {
			t.Fatalf("merge order differs from a stable sort:\n got %+v\nwant %+v", recs, want)
		}
	})
}

// TestSimulateRejectsRepeatedCompromise is the regression test for a
// second compromise of one device silently replacing the first: a scan
// at hour 6 and an exfiltration at hour 30 on one bulb yielded no scan
// records at all.
func TestSimulateRejectsRepeatedCompromise(t *testing.T) {
	cfg := DefaultConfig(9)
	cfg.Days = 2
	cfg.Compromises = []Compromise{
		{Device: "bulb-05", At: cfg.Start.Add(6 * time.Hour), Kind: CompromiseScan},
		{Device: "bulb-05", At: cfg.Start.Add(30 * time.Hour), Kind: CompromiseExfil},
	}
	if _, err := Simulate(cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("repeated compromise error = %v, want ErrBadConfig", err)
	}
}

// TestSimulateRejectsOverflowingDays is the regression test for a Days
// whose span overflows time.Duration: it panicked in makeslice instead of
// failing. The largest span that fits is accepted by validation (it is not
// simulated here: it would be centuries of traffic).
func TestSimulateRejectsOverflowingDays(t *testing.T) {
	for _, days := range []int{maxDays + 1, 200000, int(^uint(0) >> 1)} {
		cfg := DefaultConfig(10)
		cfg.Days = days
		if _, err := Simulate(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("days %d error = %v, want ErrBadConfig", days, err)
		}
	}
	if span := time.Duration(maxDays) * 24 * time.Hour; span/(24*time.Hour) != time.Duration(maxDays) {
		t.Fatalf("maxDays %d overflows time.Duration", maxDays)
	}
}
