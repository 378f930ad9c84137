package fingerprint

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"privmem/internal/attack/niom"
	"privmem/internal/home"
	"privmem/internal/nettrace"
)

// labCapture is a 2-day one-of-each-class training capture.
func labCapture(t *testing.T, seed int64) *nettrace.Capture {
	t.Helper()
	cfg := nettrace.DefaultConfig(seed)
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
}

func TestTrainAndIdentify(t *testing.T) {
	clf, err := Train(labCapture(t, 1), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if clf.Window() != time.Hour {
		t.Errorf("window = %v", clf.Window())
	}
	vcfg := nettrace.DefaultConfig(2)
	victim, err := nettrace.Simulate(vcfg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := Identify(clf, victim)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's threat: most of a 38-device LAN identified from metadata.
	if id.Accuracy < 0.7 {
		t.Errorf("identification accuracy = %.3f, want > 0.7", id.Accuracy)
	}
	if len(id.Predicted) < 30 {
		t.Errorf("only %d devices classified", len(id.Predicted))
	}
	// Distinctive heavy-traffic classes should be recognized reliably.
	if id.PerClass[nettrace.ClassCamera] < 0.5 {
		t.Errorf("camera recall = %.2f", id.PerClass[nettrace.ClassCamera])
	}
}

func TestOccupancyInferenceTracksGroundTruth(t *testing.T) {
	hcfg := home.DefaultConfig(3)
	hcfg.Days = 7
	tr, err := home.Simulate(hcfg)
	if err != nil {
		t.Fatal(err)
	}
	vcfg := nettrace.DefaultConfig(4)
	vcfg.Activity = tr.Active
	victim, err := nettrace.Simulate(vcfg)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := InferOccupancy(victim, DefaultOccupancyConfig())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := niom.EvaluateDaytime(tr.Occupancy, pred, 8, 23)
	if err != nil {
		t.Fatal(err)
	}
	// Traffic metadata leaks occupancy at least as strongly as power data.
	if ev.MCC < 0.5 {
		t.Errorf("traffic occupancy MCC = %.3f, want > 0.5", ev.MCC)
	}
	if ev.Accuracy < 0.75 {
		t.Errorf("traffic occupancy accuracy = %.3f", ev.Accuracy)
	}
}

func TestTrainValidation(t *testing.T) {
	empty := &nettrace.Capture{}
	if _, err := Train(empty, time.Hour); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty capture error = %v", err)
	}
	if _, err := Train(labCapture(t, 5), 0); err == nil {
		t.Error("zero window should fail")
	}
}

func TestClassifyDeviceValidation(t *testing.T) {
	clf, err := Train(labCapture(t, 6), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clf.ClassifyDevice(nil); !errors.Is(err, ErrBadInput) {
		t.Errorf("no windows error = %v", err)
	}
}

func TestInferOccupancyValidation(t *testing.T) {
	cap := labCapture(t, 7)
	cfg := DefaultOccupancyConfig()
	cfg.Window = -time.Minute
	if _, err := InferOccupancy(cap, cfg); !errors.Is(err, ErrBadInput) {
		t.Errorf("negative window error = %v", err)
	}
	empty := &nettrace.Capture{Start: cap.Start, End: cap.Start}
	if _, err := InferOccupancy(empty, DefaultOccupancyConfig()); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty span error = %v", err)
	}
}

func TestBayesClassifier(t *testing.T) {
	a, err := NewAdversary(labCapture(t, 8), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	vcfg := nettrace.DefaultConfig(9)
	victim, err := nettrace.Simulate(vcfg)
	if err != nil {
		t.Fatal(err)
	}
	_, id, err := a.Identify(victim)
	if err != nil {
		t.Fatal(err)
	}
	if id.Accuracy < 0.6 {
		t.Errorf("bayes identification accuracy = %.3f", id.Accuracy)
	}
	if len(id.Predicted) < 30 {
		t.Errorf("only %d devices classified", len(id.Predicted))
	}
}

func TestBayesValidation(t *testing.T) {
	empty := &nettrace.Capture{}
	if _, err := NewAdversary(empty, time.Hour); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty capture error = %v", err)
	}
	// Every class below the Bayes training-window floor: the centroid
	// variant could fit, the Bayes variant has nothing to fit.
	start := time.Date(2017, 6, 5, 0, 0, 0, 0, time.UTC)
	sparse := &nettrace.Capture{
		Start: start,
		End:   start.Add(24 * time.Hour),
		Devices: []nettrace.Device{
			{Name: "camera-01", Class: nettrace.ClassCamera},
			{Name: "thermostat-01", Class: nettrace.ClassThermostat},
		},
	}
	synthWindows(sparse, "camera-01", start, minBayesWindows-1, 6, 2_000_000)
	synthWindows(sparse, "thermostat-01", start, minBayesWindows-1, 6, 300)
	if _, err := Train(sparse, time.Hour); err != nil {
		t.Fatalf("centroid fit on the sparse lab: %v", err)
	}
	if _, err := NewAdversary(sparse, time.Hour); !errors.Is(err, ErrBadInput) {
		t.Errorf("no class above the Bayes floor: error = %v", err)
	}
	a, err := NewAdversary(labCapture(t, 10), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Bayes().ClassifyDevice(nil); !errors.Is(err, ErrBadInput) {
		t.Errorf("no windows error = %v", err)
	}
}

func TestBayesAndCentroidAgreeOnDistinctiveClasses(t *testing.T) {
	a, err := NewAdversary(labCapture(t, 11), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := nettrace.Simulate(nettrace.DefaultConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	idNC, idNB, err := a.Identify(victim)
	if err != nil {
		t.Fatal(err)
	}
	// The hub's traffic is unique (shortest heartbeat, relay events): both
	// classifiers must get it right.
	if idNC.Predicted["hub-01"] != nettrace.ClassHub {
		t.Error("centroid missed the hub")
	}
	if idNB.Predicted["hub-01"] != nettrace.ClassHub {
		t.Error("bayes missed the hub")
	}
}

// synthWindows appends count windows of periodic flows for one device,
// starting at start, one window per hour with flowsPer flows of up bytes
// each.
func synthWindows(cap *nettrace.Capture, dev string, start time.Time, count, flowsPer, up int) {
	for w := 0; w < count; w++ {
		base := start.Add(time.Duration(w) * time.Hour)
		for i := 0; i < flowsPer; i++ {
			cap.Records = append(cap.Records, nettrace.FlowRecord{
				Time:      base.Add(time.Duration(i) * 5 * time.Minute),
				Device:    dev,
				Endpoint:  dev + ".cloud",
				BytesUp:   up,
				BytesDown: up / 10,
			})
		}
	}
}

// TestBayesDroppedClassesSurfaced is the regression test for the silent
// class drop: a lab class below the training-window floor must be reported
// in Identification.DroppedClasses, and victim devices of that class must
// be flagged and excluded from Accuracy — not scored as plain
// misclassifications of an attacker that never had a chance.
func TestBayesDroppedClassesSurfaced(t *testing.T) {
	start := time.Date(2017, 6, 5, 0, 0, 0, 0, time.UTC)
	lab := &nettrace.Capture{
		Start: start,
		End:   start.Add(24 * time.Hour),
		Devices: []nettrace.Device{
			{Name: "camera-01", Class: nettrace.ClassCamera},
			{Name: "thermostat-01", Class: nettrace.ClassThermostat},
			{Name: "vacuum-01", Class: nettrace.ClassVacuum},
		},
	}
	synthWindows(lab, "camera-01", start, 12, 6, 2_000_000)
	synthWindows(lab, "thermostat-01", start, 12, 6, 300)
	synthWindows(lab, "vacuum-01", start, 2, 1, 50_000) // below the 4-window floor
	a, err := NewAdversary(lab, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Bayes().Dropped(); len(got) != 1 || got[0] != nettrace.ClassVacuum {
		t.Fatalf("Dropped() = %v, want [vacuum]", got)
	}

	victim := &nettrace.Capture{
		Start: start,
		End:   start.Add(24 * time.Hour),
		Devices: []nettrace.Device{
			{Name: "cam-A", Class: nettrace.ClassCamera},
			{Name: "thermo-B", Class: nettrace.ClassThermostat},
			{Name: "vac-C", Class: nettrace.ClassVacuum},
		},
	}
	synthWindows(victim, "cam-A", start, 12, 6, 2_000_000)
	synthWindows(victim, "thermo-B", start, 12, 6, 300)
	synthWindows(victim, "vac-C", start, 12, 1, 50_000)
	_, id, err := a.Identify(victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(id.DroppedClasses) != 1 || id.DroppedClasses[0] != nettrace.ClassVacuum {
		t.Errorf("DroppedClasses = %v, want [vacuum]", id.DroppedClasses)
	}
	if id.DroppedDevices != 1 {
		t.Errorf("DroppedDevices = %d, want 1", id.DroppedDevices)
	}
	if _, ok := id.Predicted["vac-C"]; !ok {
		t.Error("dropped-class device should still carry a prediction (the attacker's view)")
	}
	// Pre-fix failure: vac-C was scored as a misclassification, dragging
	// Accuracy to 2/3 even though both learnable classes were identified
	// perfectly.
	if id.Accuracy != 1.0 {
		t.Errorf("Accuracy = %.3f, want 1.0 over the two scorable devices", id.Accuracy)
	}
	if _, ok := id.PerClass[nettrace.ClassVacuum]; ok {
		t.Error("PerClass must not report recall for a dropped class")
	}
}

// Regression for the sorted-device walk in Train: the z-scoring sums and
// per-class centroid accumulators are floating-point reductions, so
// visiting the per-device feature map in Go's randomized map order made
// mean, std, and every centroid differ by a few ULPs from run to run.
// Training twice on the same capture must produce bit-identical
// classifiers.
func TestTrainIsDeterministic(t *testing.T) {
	lab := labCapture(t, 4)
	a, err := Train(lab, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(lab, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("Train is not deterministic across runs:\n%+v\nvs\n%+v", a, b)
	}
}
