package nettrace

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

func simulate(t *testing.T, cfg Config) *Capture {
	t.Helper()
	cap, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cap
}

func TestSimulateBasics(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Days = 1
	cap := simulate(t, cfg)
	wantDevices := 0
	for _, n := range DefaultCounts() {
		wantDevices += n
	}
	if len(cap.Devices) != wantDevices {
		t.Fatalf("devices = %d, want %d", len(cap.Devices), wantDevices)
	}
	if len(cap.Records) < 10000 {
		t.Fatalf("only %d records for a 38-device day", len(cap.Records))
	}
	for i := 1; i < len(cap.Records); i++ {
		if cap.Records[i].Time.Before(cap.Records[i-1].Time) {
			t.Fatal("records not sorted")
		}
	}
	for _, r := range cap.Records {
		if r.Time.Before(cap.Start) || !r.Time.Before(cap.End) {
			t.Fatalf("record outside capture: %v", r.Time)
		}
		if r.BytesUp < 0 || r.BytesDown < 0 {
			t.Fatal("negative bytes")
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Days = 1
	a := simulate(t, cfg)
	b := simulate(t, cfg)
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("records diverge at %d", i)
		}
	}
}

func TestDeviceClassesDistinctTraffic(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Days = 1
	cfg.Counts = map[Class]int{ClassCamera: 1, ClassBulb: 1}
	cap := simulate(t, cfg)
	bytesByDev := map[string]int{}
	for _, r := range cap.Records {
		bytesByDev[r.Device] += r.BytesUp + r.BytesDown
	}
	if bytesByDev["camera-01"] < 20*bytesByDev["bulb-01"] {
		t.Errorf("camera bytes %d not far above bulb bytes %d",
			bytesByDev["camera-01"], bytesByDev["bulb-01"])
	}
}

func TestCompromiseInjection(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Days = 2
	at := cfg.Start.Add(24 * time.Hour)
	cfg.Compromises = []Compromise{{Device: "smart-plug-01", At: at, Kind: CompromiseScan}}
	cap := simulate(t, cfg)
	var before, after int
	for _, r := range cap.Records {
		if r.Device != "smart-plug-01" {
			continue
		}
		if strings.Contains(r.Endpoint, "scan") {
			if r.Time.Before(at) {
				before++
			} else {
				after++
			}
		}
	}
	if before != 0 {
		t.Errorf("%d scan flows before compromise", before)
	}
	if after < 1000 {
		t.Errorf("only %d scan flows after compromise", after)
	}
}

func TestCompromiseValidation(t *testing.T) {
	cfg := DefaultConfig(5)
	cfg.Compromises = []Compromise{{Device: "ghost-01", At: cfg.Start, Kind: CompromiseScan}}
	if _, err := Simulate(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unknown device error = %v", err)
	}
	cfg = DefaultConfig(5)
	cfg.Compromises = []Compromise{{Device: "hub-01", At: cfg.Start, Kind: 99}}
	if _, err := Simulate(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad kind error = %v", err)
	}
}

func TestSimulateValidation(t *testing.T) {
	cfg := DefaultConfig(6)
	cfg.Days = 0
	if _, err := Simulate(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero days error = %v", err)
	}
	cfg = DefaultConfig(6)
	cfg.Counts = nil
	if _, err := Simulate(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("no devices error = %v", err)
	}
}

func TestDeviceClassLookup(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.Days = 1
	cap := simulate(t, cfg)
	c, err := cap.DeviceClass("camera-01")
	if err != nil || c != ClassCamera {
		t.Errorf("DeviceClass = %v, %v", c, err)
	}
	if _, err := cap.DeviceClass("nope"); err == nil {
		t.Error("unknown device should fail")
	}
}

func TestExtractFeatures(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Days = 1
	cfg.Counts = map[Class]int{ClassCamera: 1, ClassThermostat: 1}
	cap := simulate(t, cfg)
	feats, err := ExtractFeatures(cap, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(feats) != 2 {
		t.Fatalf("features for %d devices", len(feats))
	}
	for dev, fs := range feats {
		if len(fs) < 20 || len(fs) > 24 {
			t.Errorf("%s has %d windows, want ~24", dev, len(fs))
		}
		for _, f := range fs {
			if f.Flows <= 0 {
				t.Errorf("%s empty window emitted", dev)
			}
			if len(f.Vector()) != FeatureDim {
				t.Fatalf("vector dim = %d", len(f.Vector()))
			}
		}
	}
	// Thermostat heartbeats are metronomic: low gap CV. Cameras burst.
	thermoCV := feats["thermostat-01"][5].GapCV
	camCV := feats["camera-01"][5].GapCV
	if thermoCV >= camCV {
		t.Errorf("thermostat gap CV %.2f >= camera %.2f", thermoCV, camCV)
	}
	if _, err := ExtractFeatures(cap, 0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero window error = %v", err)
	}
}

func TestClassAndCompromiseStrings(t *testing.T) {
	for _, c := range Classes() {
		if s := c.String(); strings.HasPrefix(s, "Class(") {
			t.Errorf("class %d has no name", int(c))
		}
	}
	if Class(99).String() != "Class(99)" {
		t.Error("unknown class string")
	}
	for _, k := range []CompromiseKind{CompromiseScan, CompromiseExfil, CompromiseBot} {
		if s := k.String(); strings.HasPrefix(s, "CompromiseKind(") {
			t.Errorf("kind %d has no name", int(k))
		}
	}
}

// TestSortByTimeMatchesSortSlice pins sortByTime to the sort.Slice call it
// replaced: the same permutation, ties included, from several input orders
// of captures whose compromises add many tied timestamps.
func TestSortByTimeMatchesSortSlice(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := DefaultConfig(seed)
		cfg.Days = 1
		at := cfg.Start.Add(12 * time.Hour)
		cfg.Compromises = []Compromise{
			{Device: "camera-02", At: at, Kind: CompromiseExfil},
			{Device: "smart-plug-03", At: at, Kind: CompromiseScan},
			{Device: "bulb-05", At: at, Kind: CompromiseBot},
		}
		sorted := simulate(t, cfg).Records
		rng := rand.New(rand.NewSource(seed))
		shuffled := slices.Clone(sorted)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		reversed := slices.Clone(sorted)
		slices.Reverse(reversed)
		byDevice := slices.Clone(sorted)
		slices.SortStableFunc(byDevice, func(a, b FlowRecord) int { return strings.Compare(a.Device, b.Device) })
		for name, in := range map[string][]FlowRecord{"shuffled": shuffled, "reversed": reversed, "by-device": byDevice} {
			want := slices.Clone(in)
			sort.Slice(want, func(i, j int) bool { return want[i].Time.Before(want[j].Time) })
			got := slices.Clone(in)
			sortByTime(got)
			ties := 0
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d %s: record %d = %+v, sort.Slice gives %+v", seed, name, i, got[i], want[i])
				}
				if i > 0 && want[i].Time.Equal(want[i-1].Time) {
					ties++
				}
			}
			if ties == 0 {
				t.Fatalf("seed %d %s: no tied timestamps; the tie order is untested", seed, name)
			}
		}
	}
}
