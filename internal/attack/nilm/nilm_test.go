package nilm

import (
	"errors"
	"math"
	"testing"
	"time"

	"privmem/internal/home"
	"privmem/internal/loads"
	"privmem/internal/meter"
	"privmem/internal/timeseries"
)

var start = time.Date(2017, 6, 5, 0, 0, 0, 0, time.UTC)

// syntheticAggregate builds a clean trace with one toaster pulse and fridge
// cycles. Cycles start a few samples in: a device already on at t=0 has no
// observable rising edge.
func syntheticAggregate(t *testing.T) (*timeseries.Series, map[string]*timeseries.Series) {
	t.Helper()
	n := 6 * 60 // 6 hours of minutes
	toaster := timeseries.MustNew(start, time.Minute, n)
	for i := 30; i < 34; i++ {
		toaster.Values[i] = 900
	}
	fridge := timeseries.MustNew(start, time.Minute, n)
	for c := 0; c < 6; c++ {
		s := c*55 + 5
		for i := s; i < s+18 && i < n; i++ {
			fridge.Values[i] = 130
		}
	}
	agg := timeseries.MustNew(start, time.Minute, n)
	for i := range agg.Values {
		agg.Values[i] = toaster.Values[i] + fridge.Values[i]
	}
	return agg, map[string]*timeseries.Series{
		loads.NameToaster: toaster,
		loads.NameFridge:  fridge,
	}
}

func modelsFor(t *testing.T, names ...string) []loads.Model {
	t.Helper()
	out := make([]loads.Model, 0, len(names))
	for _, n := range names {
		m, err := loads.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

func TestPowerPlayCleanTrace(t *testing.T) {
	agg, truth := syntheticAggregate(t)
	inferred, err := PowerPlay(agg, modelsFor(t, loads.NameToaster, loads.NameFridge), DefaultPowerPlayConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(truth, inferred)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.ErrorFactor > 0.1 {
			t.Errorf("%s error = %.3f on a clean trace", r.Device, r.ErrorFactor)
		}
	}
}

func TestPowerPlayIgnoresUnmodeledLoads(t *testing.T) {
	agg, truth := syntheticAggregate(t)
	// Add an unmodeled 2000 W load pulse: no tracked model matches it, so
	// inferred traces must not change for tracked devices.
	noisy := agg.Clone()
	for i := 200; i < 230; i++ {
		noisy.Values[i] += 2000
	}
	inferred, err := PowerPlay(noisy, modelsFor(t, loads.NameToaster, loads.NameFridge), DefaultPowerPlayConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(truth, inferred)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.ErrorFactor > 0.15 {
			t.Errorf("%s error = %.3f with unmodeled pulse", r.Device, r.ErrorFactor)
		}
	}
}

func TestPowerPlayValidation(t *testing.T) {
	agg, _ := syntheticAggregate(t)
	models := modelsFor(t, loads.NameToaster)
	tests := []struct {
		name string
		cfg  PowerPlayConfig
	}{
		{name: "tolerance too high", cfg: PowerPlayConfig{Tolerance: 1.5}},
		{name: "negative tolerance", cfg: PowerPlayConfig{Tolerance: -0.1}},
		{name: "negative min edge", cfg: PowerPlayConfig{MinEdgeW: -1}},
		{name: "negative timing", cfg: PowerPlayConfig{TimingWeight: -1}},
		{name: "negative abs tolerance", cfg: PowerPlayConfig{AbsToleranceW: -5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := PowerPlay(agg, models, tt.cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("error = %v, want ErrBadConfig", err)
			}
		})
	}
	if _, err := PowerPlay(agg, nil, DefaultPowerPlayConfig()); !errors.Is(err, ErrBadConfig) {
		t.Errorf("no models error = %v", err)
	}
	bad := []loads.Model{{Name: "broken"}}
	if _, err := PowerPlay(agg, bad, DefaultPowerPlayConfig()); err == nil {
		t.Error("invalid model should fail")
	}
}

func TestFHMMCleanTrace(t *testing.T) {
	agg, truth := syntheticAggregate(t)
	f, err := TrainFHMM(truth, nil, FHMMConfig{StatesPerDevice: 2, ObsStdW: 20, ChunkSamples: 720})
	if err != nil {
		t.Fatal(err)
	}
	inferred, err := f.Disaggregate(agg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(truth, inferred)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		// The constant 100 W base is unmodeled; clean-trace FHMM should
		// still track both devices closely.
		if r.ErrorFactor > 0.2 {
			t.Errorf("%s error = %.3f on a clean trace", r.Device, r.ErrorFactor)
		}
	}
}

func TestFHMMDevicesAndChain(t *testing.T) {
	_, truth := syntheticAggregate(t)
	f, err := TrainFHMM(truth, nil, DefaultFHMMConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Devices are sorted, each with its own chain.
	devs := f.names
	if len(devs) != 2 || devs[0] != loads.NameFridge || devs[1] != loads.NameToaster || len(f.chains) != 2 {
		t.Fatalf("names = %v with %d chains", devs, len(f.chains))
	}
	// The toaster's on state should be near 900 W.
	ch := f.chains[1]
	hi := ch.Means[len(ch.Means)-1]
	if math.Abs(hi-900) > 50 {
		t.Errorf("toaster on-state mean = %v", hi)
	}
}

func TestFHMMValidation(t *testing.T) {
	_, truth := syntheticAggregate(t)
	tests := []struct {
		name string
		cfg  FHMMConfig
	}{
		{name: "zero states invalid via 5", cfg: FHMMConfig{StatesPerDevice: 5}},
		{name: "negative obs std", cfg: FHMMConfig{ObsStdW: -1}},
		{name: "tiny chunks", cfg: FHMMConfig{ChunkSamples: 4}},
		{name: "too many other states", cfg: FHMMConfig{OtherStates: 99}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := TrainFHMM(truth, nil, tt.cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("error = %v, want ErrBadConfig", err)
			}
		})
	}
	if _, err := TrainFHMM(nil, nil, DefaultFHMMConfig()); !errors.Is(err, ErrBadConfig) {
		t.Errorf("no traces error = %v", err)
	}
}

func TestEvaluateSkipsUnknownDevices(t *testing.T) {
	_, truth := syntheticAggregate(t)
	inferred := map[string]*timeseries.Series{
		loads.NameToaster: truth[loads.NameToaster].Clone(),
		"mystery":         truth[loads.NameToaster].Clone(),
	}
	res, err := Evaluate(truth, inferred)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Device != loads.NameToaster {
		t.Errorf("Evaluate = %+v", res)
	}
	if res[0].ErrorFactor != 0 {
		t.Errorf("perfect inference error = %v", res[0].ErrorFactor)
	}
}

// TestFigure2Shape is the integration test for the paper's Figure 2: on a
// realistic home, PowerPlay must beat the FHMM baseline for every tracked
// device, with the dryer accurately tracked by both.
func TestFigure2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := home.DefaultConfig(42)
	cfg.Days = 10
	cfg.Step = 10 * time.Second
	cfg.IncludeWaterHeater = false // the Figure 2 home heats water with gas
	tr, err := home.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mc := meter.DefaultConfig(42)
	mc.Interval = 10 * time.Second
	metered, err := meter.Read(mc, tr.Aggregate)
	if err != nil {
		t.Fatal(err)
	}

	trainSamples := 3 * 24 * 360 // 3 days at 10 s
	var models []loads.Model
	truthTrain := map[string]*timeseries.Series{}
	truthTest := map[string]*timeseries.Series{}
	other := tr.Aggregate.Slice(0, trainSamples)
	for _, name := range loads.TrackedDevices() {
		m, err := loads.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
		truthTrain[name] = tr.Appliances[name].Slice(0, trainSamples)
		truthTest[name] = tr.Appliances[name].Slice(trainSamples, tr.Aggregate.Len())
		other, err = other.Sub(truthTrain[name])
		if err != nil {
			t.Fatal(err)
		}
	}

	pp, err := PowerPlay(metered.Slice(trainSamples, metered.Len()), models, DefaultPowerPlayConfig())
	if err != nil {
		t.Fatal(err)
	}
	ppErr, err := Evaluate(truthTest, pp)
	if err != nil {
		t.Fatal(err)
	}

	// FHMM consumes 1-minute data (its standard input granularity).
	coarse := func(s *timeseries.Series) *timeseries.Series {
		r, err := s.Resample(time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	train1m := map[string]*timeseries.Series{}
	test1m := map[string]*timeseries.Series{}
	for name := range truthTrain {
		train1m[name] = coarse(truthTrain[name])
		test1m[name] = coarse(truthTest[name])
	}
	f, err := TrainFHMM(train1m, coarse(other), DefaultFHMMConfig())
	if err != nil {
		t.Fatal(err)
	}
	fh, err := f.Disaggregate(coarse(metered.Slice(trainSamples, metered.Len())))
	if err != nil {
		t.Fatal(err)
	}
	fhErr, err := Evaluate(test1m, fh)
	if err != nil {
		t.Fatal(err)
	}

	fhByDev := map[string]float64{}
	for _, r := range fhErr {
		fhByDev[r.Device] = r.ErrorFactor
	}
	var ppMean, fhMean float64
	for _, r := range ppErr {
		fe := fhByDev[r.Device]
		ppMean += r.ErrorFactor / float64(len(ppErr))
		fhMean += fe / float64(len(ppErr))
		t.Logf("%-8s powerplay=%.3f fhmm=%.3f", r.Device, r.ErrorFactor, fe)
		// When both trackers are essentially perfect the ordering is noise,
		// so the strict comparison only applies once either error is
		// non-trivial.
		if (r.ErrorFactor > 0.05 || fe > 0.05) && r.ErrorFactor >= fe {
			t.Errorf("%s: PowerPlay (%.3f) should beat FHMM (%.3f)", r.Device, r.ErrorFactor, fe)
		}
	}
	if ppMean >= fhMean {
		t.Errorf("mean PowerPlay error %.3f should beat mean FHMM error %.3f", ppMean, fhMean)
	}
	for _, r := range ppErr {
		if r.Device == loads.NameDryer && r.ErrorFactor > 0.3 {
			t.Errorf("PowerPlay dryer error = %.3f, want accurate tracking", r.ErrorFactor)
		}
	}
	if fhByDev[loads.NameDryer] > 0.3 {
		t.Errorf("FHMM dryer error = %.3f, want accurate tracking", fhByDev[loads.NameDryer])
	}
}
