package nettrace

import (
	"errors"
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

// Each compromise is rejected with ErrBadConfig. One scheduled before the
// capture's Start would fill the capture with records from before its own
// Start, and a zero At would size the record slab for ~292 years of
// traffic.
func TestCompromiseValidation(t *testing.T) {
	start := DefaultConfig(5).Start
	for _, c := range []struct {
		name string
		cmp  Compromise
	}{
		{"unknown device", Compromise{Device: "ghost-01", At: start, Kind: CompromiseScan}},
		{"bad kind", Compromise{Device: "hub-01", At: start, Kind: 99}},
		{"before start", Compromise{Device: "smart-plug-01", At: start.Add(-2 * time.Hour), Kind: CompromiseScan}},
		{"zero time", Compromise{Device: "smart-plug-01", Kind: CompromiseScan}},
	} {
		cfg := DefaultConfig(5)
		cfg.Days = 1
		cfg.Compromises = []Compromise{c.cmp}
		if _, err := Simulate(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: error = %v, want ErrBadConfig", c.name, err)
		}
	}
}

// A compromise at or after the capture's end is legal and adds no records.
func TestCompromiseAtEnd(t *testing.T) {
	cfg := DefaultConfig(5)
	cfg.Days = 1
	clean := simulate(t, cfg)
	cfg.Compromises = []Compromise{{Device: "smart-plug-01", At: clean.End, Kind: CompromiseScan}}
	if got := simulate(t, cfg); len(got.Records) != len(clean.Records) {
		t.Errorf("compromise at End: %d records, want %d", len(got.Records), len(clean.Records))
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
