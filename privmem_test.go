package privmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"testing"
	"time"

	"privmem/internal/loads"
	"privmem/internal/nettrace"
)

func TestEnergyWorldEndToEnd(t *testing.T) {
	w, err := NewEnergyWorld(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	start, end := w.Span()
	if got := end.Sub(start); got != 5*24*time.Hour {
		t.Errorf("span = %v", got)
	}
	ev, pred, err := w.OccupancyAttack()
	if err != nil {
		t.Fatal(err)
	}
	if pred.Len() != w.Metered.Len() {
		t.Error("prediction misaligned")
	}
	if ev.MCC <= 0 {
		t.Errorf("occupancy attack MCC = %.3f, want positive signal", ev.MCC)
	}
	errs, inferred, err := w.ApplianceAttack()
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 5 || len(inferred) != 5 {
		t.Errorf("appliance attack covered %d devices", len(errs))
	}
}

func TestNewEnergyWorld(t *testing.T) {
	w, err := NewEnergyWorld(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if w.Metered.Len() != 3*24*60 {
		t.Errorf("metered len = %d", w.Metered.Len())
	}
	if w.Trace == nil || w.Config.Days != 3 {
		t.Error("world incompletely populated")
	}
}

func TestNewEnergyWorldHighRate(t *testing.T) {
	cfg := DefaultHomeConfig(2)
	cfg.Days = 1
	cfg.Step = 10 * time.Second
	w, err := NewEnergyWorldFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.Metered.Step != 10*time.Second {
		t.Errorf("meter step = %v, want simulation step", w.Metered.Step)
	}
}

func TestOccupancyAndApplianceAttacks(t *testing.T) {
	w, err := NewEnergyWorld(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	ev, pred, err := w.OccupancyAttack()
	if err != nil {
		t.Fatal(err)
	}
	if pred == nil || ev.Confusion.Total() == 0 {
		t.Error("empty attack result")
	}
	errs, inferred, err := w.ApplianceAttack()
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) == 0 || len(inferred) == 0 {
		t.Error("empty appliance attack")
	}
	for _, e := range errs {
		if e.ErrorFactor < 0 {
			t.Errorf("%s negative error factor", e.Device)
		}
	}
}

func TestHourlyProfile(t *testing.T) {
	w, err := NewEnergyWorld(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.HourlyProfile()
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range p {
		if v < 0 {
			t.Fatal("negative hourly mean")
		}
		total += v
	}
	if total == 0 {
		t.Error("empty profile")
	}
}

func TestDefenseMatrixOrdering(t *testing.T) {
	w, err := NewEnergyWorld(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := w.DefenseMatrix(AllDefenses())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	byDef := map[Defense]MatrixRow{}
	for _, r := range rows {
		byDef[r.Defense] = r
	}
	base := byDef[DefenseNone].MCC
	if base < 0.2 {
		t.Fatalf("undefended MCC %.3f too weak", base)
	}
	// CHPr and DP must strongly reduce the attack; batteries at least some.
	if byDef[DefenseCHPr].MCC > base/3 {
		t.Errorf("CHPr MCC %.3f vs base %.3f", byDef[DefenseCHPr].MCC, base)
	}
	if byDef[DefenseDP].MCC > base/2 {
		t.Errorf("DP MCC %.3f vs base %.3f", byDef[DefenseDP].MCC, base)
	}
	if byDef[DefenseNILL].MCC >= base {
		t.Errorf("NILL did not reduce MCC: %.3f vs %.3f", byDef[DefenseNILL].MCC, base)
	}
}

func TestDefenseMatrix(t *testing.T) {
	w, err := NewEnergyWorld(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := w.DefenseMatrix(AllDefenses())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AllDefenses()) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Defense.String() == "" {
			t.Error("unnamed defense")
		}
	}
	if _, err := w.DefenseMatrix(nil); !errors.Is(err, errBadInput) {
		t.Errorf("empty defenses error = %v", err)
	}
	if _, err := w.DefenseMatrix([]Defense{Defense(99)}); !errors.Is(err, errBadInput) {
		t.Errorf("unknown defense error = %v", err)
	}
}

// TestDefenseMatrixCarriesStep is the regression test for the CHPr branch
// re-metering at the 1-minute default instead of the world's configured
// step: a 90-second step is not a multiple of one minute, so the stale
// config made this matrix fail outright (and silently resampled any other
// non-default step).
func TestDefenseMatrixCarriesStep(t *testing.T) {
	cfg := DefaultHomeConfig(6)
	cfg.Days = 2
	cfg.Step = 90 * time.Second
	w, err := NewEnergyWorldFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := w.DefenseMatrix([]Defense{DefenseNone, DefenseCHPr})
	if err != nil {
		t.Fatalf("DefenseMatrix on a 90s-step world: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].Defense != DefenseCHPr || rows[1].CostNote == "-" {
		t.Errorf("CHPr row not populated: %+v", rows[1])
	}
}

// TestDefenseMatrixCHPrReplacesHeater checks that the CHPr row swaps the
// home's naive water heater for the CHPr heater instead of running both:
// the defended ground truth minus the CHPr heater's energy must equal the
// aggregate minus the naive heater's energy.
func TestDefenseMatrixCHPrReplacesHeater(t *testing.T) {
	w, err := NewEnergyWorld(42, 3)
	if err != nil {
		t.Fatal(err)
	}
	naive, ok := w.Trace.Appliances[loads.NameWaterHeater]
	if !ok {
		t.Fatal("default home has no water heater")
	}
	defended, masked, err := w.chprDefended()
	if err != nil {
		t.Fatal(err)
	}
	got := defended.Energy() - masked.EnergyWh
	want := w.Trace.Aggregate.Energy() - naive.Energy()
	if math.Abs(got-want) > 1e-6*want {
		t.Errorf("defended minus CHPr heater = %.1f Wh, want aggregate minus naive heater = %.1f Wh", got, want)
	}
}

func TestDefenseString(t *testing.T) {
	for _, d := range AllDefenses() {
		if s := d.String(); s == "" || s[0] == 'D' {
			t.Errorf("defense %d has bad name %q", int(d), s)
		}
	}
	if Defense(42).String() != "Defense(42)" {
		t.Error("unknown defense string")
	}
}

func TestSolarWorldEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("long solar world")
	}
	w, err := NewSolarWorld(3, 200)
	if err != nil {
		t.Fatal(err)
	}
	site := w.Sites[4] // a south-facing site
	gen, err := w.Generation(site, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := w.LocalizeSunSpot(gen)
	if err != nil {
		t.Fatal(err)
	}
	if d := DistanceKm(site.Lat, site.Lon, ss.Lat, ss.Lon); d > 500 {
		t.Errorf("sunspot error %.0f km on a south-facing site", d)
	}
	hourly, err := gen.Resample(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	wm, err := w.LocalizeWeatherman(hourly)
	if err != nil {
		t.Fatal(err)
	}
	if d := DistanceKm(site.Lat, site.Lon, wm.Lat, wm.Lon); d > 25 {
		t.Errorf("weatherman error %.1f km", d)
	}
}

func TestNetworkWorldEndToEnd(t *testing.T) {
	hw, err := NewEnergyWorld(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := NewNetworkWorld(4, 4, hw.Trace.Active)
	if err != nil {
		t.Fatal(err)
	}
	id, err := nw.FingerprintDevices()
	if err != nil {
		t.Fatal(err)
	}
	if id.Accuracy < 0.6 {
		t.Errorf("device id accuracy = %.3f", id.Accuracy)
	}
	occ, err := nw.InferOccupancyFromTraffic()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := EvaluateOccupancy(hw.Trace.Occupancy, occ)
	if err != nil {
		t.Fatal(err)
	}
	if ev.MCC < 0.4 {
		t.Errorf("traffic occupancy MCC = %.3f", ev.MCC)
	}
	_, report, err := nw.ShapeTraffic(false)
	if err != nil {
		t.Fatal(err)
	}
	if report.MeanDelay <= 0 {
		t.Error("shaping reported no delay")
	}
}

// TestNewNetworkWorldRejectsOverflowingDays: a Days whose span overflows
// time.Duration is a config error, not a makeslice panic, through the
// facade as through nettrace.Simulate.
func TestNewNetworkWorldRejectsOverflowingDays(t *testing.T) {
	if _, err := NewNetworkWorld(1, 200000, nil); !errors.Is(err, nettrace.ErrBadConfig) {
		t.Fatalf("NewNetworkWorld(1, 200000, nil) error = %v, want nettrace.ErrBadConfig", err)
	}
}

func TestRunExperimentRegistry(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 16 {
		t.Fatalf("expected 16 experiments, got %d", len(ids))
	}
	// Spot-check a cheap one end to end.
	rep, err := RunExperiment("f6", true)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := rep.Metric("mcc_original")
	if err != nil {
		t.Fatal(err)
	}
	defended, err := rep.Metric("mcc_chpr")
	if err != nil {
		t.Fatal(err)
	}
	if defended > orig/3 {
		t.Errorf("f6 shape broken: %.3f -> %.3f", orig, defended)
	}
	if _, err := RunExperiment("nope", true); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestRandomHomeConfigAndMeter(t *testing.T) {
	cfg := RandomHomeConfig(5, 3)
	cfg.Days = 2
	w, err := NewEnergyWorldFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ReadMeter(5, w.Trace.Aggregate)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != w.Trace.Aggregate.Len() {
		t.Error("meter length mismatch")
	}
}

// goldenHash feeds a world's bytes into an FNV-64a digest.
type goldenHash struct{ hash.Hash64 }

func (h goldenHash) ints(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

func (h goldenHash) floats(vs ...float64) {
	for _, v := range vs {
		h.ints(int64(math.Float64bits(v)))
	}
}

func (h goldenHash) str(s string) { h.ints(int64(len(s))); h.Write([]byte(s)) }

func (h goldenHash) series(s *Series) {
	h.ints(s.Start.UnixNano(), int64(s.Step), int64(len(s.Values)))
	h.floats(s.Values...)
}

func (h goldenHash) capture(c *LANCapture) {
	h.ints(c.Start.UnixNano(), c.End.UnixNano(), int64(len(c.Records)), int64(len(c.Devices)))
	for _, r := range c.Records {
		h.ints(r.Time.UnixNano(), int64(r.BytesUp), int64(r.BytesDown))
		h.str(r.Device)
		h.str(r.Endpoint)
	}
	for _, d := range c.Devices {
		h.str(d.Name)
		h.ints(int64(d.Class))
	}
}

func (h goldenHash) energy(w *EnergyWorld) {
	h.series(w.Trace.Aggregate)
	h.series(w.Trace.Occupancy)
	names := make([]string, 0, len(w.Trace.Appliances))
	for name := range w.Trace.Appliances {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h.str(name)
		h.series(w.Trace.Appliances[name])
	}
	h.series(w.Metered)
}

// TestFacadeWorldsGolden pins the bytes of every facade world at a small
// size: the FNV-64a digest of its series, captures, stations and sites. A
// constructor change that moves any bit of what the public API returns
// fails here, as a changed experiment fails `make golden`.
func TestFacadeWorldsGolden(t *testing.T) {
	cases := []struct {
		name  string
		write func(h goldenHash) error
		want  string
	}{
		{"energy", func(h goldenHash) error {
			w, err := NewEnergyWorld(42, 2)
			if err == nil {
				h.energy(w)
			}
			return err
		}, "f7cc625c65920684"},
		{"energy-10s", func(h goldenHash) error {
			cfg := DefaultHomeConfig(7)
			cfg.Days = 1
			cfg.Step = 10 * time.Second
			w, err := NewEnergyWorldFromConfig(cfg)
			if err == nil {
				h.energy(w)
			}
			return err
		}, "f3d3073407959b2b"},
		{"network", func(h goldenHash) error {
			w, err := NewNetworkWorld(42, 1, nil)
			if err == nil {
				h.capture(w.Victim)
				h.capture(w.Lab)
			}
			return err
		}, "9f0cf8041c20f3db"},
		{"solar", func(h goldenHash) error {
			w, err := NewSolarWorld(42, 3)
			if err != nil {
				return err
			}
			for _, st := range w.Stations {
				h.str(st.Name)
				h.floats(st.Lat, st.Lon)
				h.series(st.Cloud)
			}
			for _, s := range w.Sites {
				h.str(s.Name)
				h.floats(s.Lat, s.Lon, s.CapacityW, s.TiltDeg, s.AzimuthDeg, s.InverterLimitW, s.NoiseStd)
			}
			gen, err := w.Generation(w.Sites[0], time.Hour)
			if err == nil {
				h.series(gen)
			}
			return err
		}, "a7bc0f24cd01aab1"},
	}
	for _, c := range cases {
		h := goldenHash{fnv.New64a()}
		if err := c.write(h); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != c.want {
			t.Errorf("%s digest = %s, want %s", c.name, got, c.want)
		}
	}
}
