package gateway

import (
	"errors"
	"slices"
	"testing"
	"time"

	"privmem/internal/attack/fingerprint"
	"privmem/internal/nettrace"
)

func cleanCapture(t *testing.T, seed int64, days int) *nettrace.Capture {
	t.Helper()
	cfg := nettrace.DefaultConfig(seed)
	cfg.Days = days
	cap, err := nettrace.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cap
}

func TestScanCleanCaptureNoAlerts(t *testing.T) {
	mon, err := LearnProfiles(cleanCapture(t, 1, 2), DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	alerts, err := mon.Scan(cleanCapture(t, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) > 1 { // allow at most one benign-burst false positive
		t.Errorf("clean capture raised %d alerts: %+v", len(alerts), alerts)
	}
}

func TestScanDetectsAllCompromiseKinds(t *testing.T) {
	mon, err := LearnProfiles(cleanCapture(t, 3, 2), DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := nettrace.DefaultConfig(4)
	cfg.Days = 3
	at := cfg.Start.Add(30 * time.Hour)
	cfg.Compromises = []nettrace.Compromise{
		{Device: "camera-01", At: at, Kind: nettrace.CompromiseExfil},
		{Device: "smart-plug-02", At: at, Kind: nettrace.CompromiseScan},
		{Device: "bulb-03", At: at, Kind: nettrace.CompromiseBot},
	}
	victim, err := nettrace.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	alerts, err := mon.Scan(victim)
	if err != nil {
		t.Fatal(err)
	}
	alerted := map[string]Alert{}
	for _, a := range alerts {
		alerted[a.Device] = a
	}
	for _, victim := range []string{"camera-01", "smart-plug-02", "bulb-03"} {
		a, ok := alerted[victim]
		if !ok {
			t.Errorf("%s compromise not detected", victim)
			continue
		}
		latency := a.At.Sub(at)
		if latency < 0 {
			t.Errorf("%s alerted before compromise", victim)
		}
		if latency > time.Hour {
			t.Errorf("%s detection latency %v too slow", victim, latency)
		}
		if len(a.Reasons) == 0 {
			t.Errorf("%s alert has no reasons", victim)
		}
	}
}

func TestScanFlagsUnknownDevice(t *testing.T) {
	// Train on a home without vacuums; a vacuum then appears.
	cfg := nettrace.DefaultConfig(5)
	cfg.Days = 1
	cfg.Counts = map[nettrace.Class]int{nettrace.ClassHub: 1}
	clean, err := nettrace.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := LearnProfiles(clean, DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Counts = map[nettrace.Class]int{nettrace.ClassHub: 1, nettrace.ClassVacuum: 1}
	victim, err := nettrace.Simulate(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	alerts, err := mon.Scan(victim)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, a := range alerts {
		if a.Device == "vacuum-01" {
			found = true
		}
	}
	if !found {
		t.Error("unknown device not flagged")
	}
}

// TestScanCountsOutsideSpanAndUndeclared: a hand-built capture can hold
// records before its Start and records of a device it does not declare.
// Both are still counted per window, so two windows of flows to an unknown
// endpoint quarantine the device at the second, inside or outside the span.
func TestScanCountsOutsideSpanAndUndeclared(t *testing.T) {
	cfg := nettrace.DefaultConfig(5)
	cfg.Days = 1
	cfg.Counts = map[nettrace.Class]int{nettrace.ClassHub: 1}
	clean, err := nettrace.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := LearnProfiles(clean, DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	start := clean.End
	rec := func(off time.Duration, endpoint string) nettrace.FlowRecord {
		return nettrace.FlowRecord{Time: start.Add(off), Device: "hub-01", Endpoint: endpoint, BytesUp: 100, BytesDown: 100}
	}
	known := clean.Records[0].Endpoint
	for _, tc := range []struct {
		name string
		recs []nettrace.FlowRecord
		want time.Time
	}{
		{"before start", []nettrace.FlowRecord{rec(-15*time.Minute, "evil.example"), rec(-5*time.Minute, "evil.example"), rec(time.Minute, known)},
			start.Add(-10 * time.Minute)},
		{"inside span", []nettrace.FlowRecord{rec(time.Minute, known), rec(21*time.Minute, "evil.example"), rec(31*time.Minute, "evil.example")},
			start.Add(30 * time.Minute)},
	} {
		victim := &nettrace.Capture{Start: start, End: start.Add(time.Hour), Records: tc.recs}
		alerts, err := mon.Scan(victim)
		if err != nil {
			t.Fatal(err)
		}
		if len(alerts) != 1 || alerts[0].Device != "hub-01" || !alerts[0].At.Equal(tc.want) {
			t.Errorf("%s: alerts = %+v, want hub-01 at %v", tc.name, alerts, tc.want)
		}
	}
}

func TestShapeDefeatsFingerprinting(t *testing.T) {
	lab := func() *nettrace.Capture {
		cfg := nettrace.DefaultConfig(6)
		cfg.Days = 2
		cfg.Counts = map[nettrace.Class]int{}
		for _, c := range nettrace.Classes() {
			cfg.Counts[c] = 1
		}
		cap, err := nettrace.Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return cap
	}()
	clf, err := fingerprint.Train(lab, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	victim := cleanCapture(t, 7, 3)
	plain, err := fingerprint.Identify(clf, victim)
	if err != nil {
		t.Fatal(err)
	}
	shaped, report, err := Shape(victim, DefaultShapeConfig())
	if err != nil {
		t.Fatal(err)
	}
	after, err := fingerprint.Identify(clf, shaped)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Accuracy < 0.7 {
		t.Fatalf("baseline identification too weak: %.3f", plain.Accuracy)
	}
	if after.Accuracy > 0.3 {
		t.Errorf("shaped identification %.3f still high", after.Accuracy)
	}
	if report.PaddingOverhead <= 0 {
		t.Error("shaping reported no padding overhead")
	}
	if report.MeanDelay <= 0 {
		t.Error("shaping reported no delay")
	}
}

func TestShapeHidesEventTiming(t *testing.T) {
	victim := cleanCapture(t, 8, 2)
	shaped, _, err := Shape(victim, DefaultShapeConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Every shaped record must go to the opaque gateway endpoint on the
	// fixed cadence.
	for _, r := range shaped.Records {
		if r.Endpoint != "gateway.shaped.local" {
			t.Fatalf("leaked endpoint %q", r.Endpoint)
		}
		if r.Time.Sub(shaped.Start)%time.Minute != 0 {
			t.Fatalf("off-cadence record at %v", r.Time)
		}
	}
}

func TestUniformShapingCostsMore(t *testing.T) {
	victim := cleanCapture(t, 9, 2)
	_, perDev, err := Shape(victim, DefaultShapeConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultShapeConfig()
	cfg.Uniform = true
	_, uniform, err := Shape(victim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if uniform.PaddingOverhead <= perDev.PaddingOverhead*2 {
		t.Errorf("uniform overhead %.2f not well above per-device %.2f",
			uniform.PaddingOverhead, perDev.PaddingOverhead)
	}
}

func TestValidation(t *testing.T) {
	clean := cleanCapture(t, 10, 1)
	bad := DefaultMonitorConfig()
	bad.Window = -time.Minute
	if _, err := LearnProfiles(clean, bad); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad window error = %v", err)
	}
	empty := &nettrace.Capture{}
	if _, err := LearnProfiles(empty, DefaultMonitorConfig()); !errors.Is(err, ErrBadConfig) {
		t.Errorf("empty capture error = %v", err)
	}
	sc := DefaultShapeConfig()
	sc.EnvelopeQuantile = 2
	if _, _, err := Shape(clean, sc); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad quantile error = %v", err)
	}
	shortCap := &nettrace.Capture{Start: clean.Start, End: clean.Start}
	if _, _, err := Shape(shortCap, DefaultShapeConfig()); !errors.Is(err, ErrBadConfig) {
		t.Errorf("short capture error = %v", err)
	}
}

// TestScanOrderDeterministic: alerts that quarantine several devices in one
// window must come back in one order on every scan, ties broken by device
// name. Scan walks a map of per-device features, so ordering by time alone
// leaves tied alerts in map-iteration order.
func TestScanOrderDeterministic(t *testing.T) {
	mon, err := LearnProfiles(cleanCapture(t, 3, 2), DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := nettrace.DefaultConfig(5)
	cfg.Days = 3
	at := cfg.Start.Add(30 * time.Hour)
	cfg.Compromises = []nettrace.Compromise{
		{Device: "camera-02", At: at, Kind: nettrace.CompromiseExfil},
		{Device: "smart-plug-03", At: at, Kind: nettrace.CompromiseScan},
		{Device: "bulb-05", At: at, Kind: nettrace.CompromiseBot},
	}
	victim, err := nettrace.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	order := func(alerts []Alert) []string {
		out := make([]string, len(alerts))
		for i, a := range alerts {
			out[i] = a.At.Format(time.RFC3339) + " " + a.Device
		}
		return out
	}
	first, err := mon.Scan(victim)
	if err != nil {
		t.Fatal(err)
	}
	want := order(first)
	ties := 0
	for i := 1; i < len(first); i++ {
		if first[i].At.Equal(first[i-1].At) {
			ties++
			if first[i].Device < first[i-1].Device {
				t.Errorf("tied alerts out of device order: %v", want)
			}
		}
	}
	if ties == 0 {
		t.Fatalf("no tied alerts in %v; the tie order is untested", want)
	}
	for run := 1; run < 20; run++ {
		alerts, err := mon.Scan(victim)
		if err != nil {
			t.Fatal(err)
		}
		if got := order(alerts); !slices.Equal(got, want) {
			t.Fatalf("scan %d returned %v, first scan %v", run, got, want)
		}
	}
}
