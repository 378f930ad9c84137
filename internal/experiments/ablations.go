package experiments

import (
	"fmt"
	"time"

	"privmem/internal/attack/nilm"
	"privmem/internal/attack/niom"
	"privmem/internal/attack/sunspot"
	"privmem/internal/attack/weatherman"
	"privmem/internal/defense/gateway"
	"privmem/internal/home"
	"privmem/internal/metrics"
	"privmem/internal/nettrace"
	"privmem/internal/solarsim"
	"privmem/internal/stats"
	"privmem/internal/timeseries"
	"privmem/internal/weather"
)

// AblationIDs lists the ablation studies: sensitivity analyses of the
// design choices behind the headline results. They are not paper artifacts
// but document why the implementations are configured as they are.
func AblationIDs() []string {
	return []string{"a1", "a2", "a3", "a4", "a5", "a6"}
}

// ablationRegistry returns the ablation runners.
func ablationRegistry() map[string]Runner {
	return map[string]Runner{
		"a1": AblationNIOMDetector,
		"a2": AblationPowerPlay,
		"a3": AblationFHMMOtherChain,
		"a4": AblationSunSpotDataSpan,
		"a5": AblationWeathermanResolution,
		"a6": AblationShapingEnvelope,
	}
}

// AblationNIOMDetector sweeps the NIOM threshold detector's design choices:
// window width, majority smoothing, and the edge test.
func AblationNIOMDetector(opts Options) (*Report, error) {
	seed := opts.seed()
	days := 7
	if opts.Quick {
		days = 4
	}
	// Average over a few homes so single-home noise does not dominate.
	nHomes := 4
	type variant struct {
		name string
		cfg  niom.Config
	}
	variants := []variant{
		{"default (15m, smooth=5, edges)", niom.DefaultConfig()},
		{"window 5m", func() niom.Config { c := niom.DefaultConfig(); c.Window = 5 * time.Minute; return c }()},
		{"window 60m", func() niom.Config { c := niom.DefaultConfig(); c.Window = time.Hour; return c }()},
		{"no smoothing", func() niom.Config { c := niom.DefaultConfig(); c.SmoothWindows = 1; return c }()},
		{"no edge test", func() niom.Config { c := niom.DefaultConfig(); c.EdgeThresholdW = 1e12; return c }()},
		{"mean margin 500W", func() niom.Config { c := niom.DefaultConfig(); c.MeanMarginW = 500; return c }()},
	}
	rep := &Report{
		ID:      "a1",
		Title:   "ablation: NIOM threshold-detector design choices",
		Headers: []string{"variant", "mean MCC", "mean daytime acc"},
		Metrics: map[string]float64{},
		Notes: []string{
			"the default combines a moderate window, majority smoothing, and the large-edge test",
		},
	}
	for vi, v := range variants {
		var mccs, accs []float64
		for h := 0; h < nHomes; h++ {
			cfg := home.RandomConfig(seed+200, h)
			cfg.Days = days
			tr, m, err := home.SimulateMetered(cfg, seed+int64(h))
			if err != nil {
				return nil, fmt.Errorf("ablation niom: %w", err)
			}
			pred, err := niom.DetectThreshold(m, v.cfg)
			if err != nil {
				return nil, fmt.Errorf("ablation niom %q: %w", v.name, err)
			}
			ev, err := niom.Evaluate(tr.Occupancy, pred)
			if err != nil {
				return nil, fmt.Errorf("ablation niom: %w", err)
			}
			day, err := niom.EvaluateDaytime(tr.Occupancy, pred, 8, 23)
			if err != nil {
				return nil, fmt.Errorf("ablation niom: %w", err)
			}
			mccs = append(mccs, ev.MCC)
			accs = append(accs, day.Accuracy)
		}
		rep.Rows = append(rep.Rows, []string{v.name, f(stats.Mean(mccs)), f(stats.Mean(accs))})
		rep.Metrics[fmt.Sprintf("mcc_variant_%d", vi)] = stats.Mean(mccs)
	}
	return rep, nil
}

// AblationPowerPlay sweeps PowerPlay's matching machinery: the duty-cycle
// timing prior, the absolute tolerance floor, and the edge pad.
func AblationPowerPlay(opts Options) (*Report, error) {
	w, err := buildNILMWorkload(opts)
	if err != nil {
		return nil, fmt.Errorf("ablation powerplay: %w", err)
	}
	type variant struct {
		name string
		cfg  nilm.PowerPlayConfig
	}
	variants := []variant{
		{"default", nilm.DefaultPowerPlayConfig()},
		{"no timing prior", func() nilm.PowerPlayConfig {
			c := nilm.DefaultPowerPlayConfig()
			c.TimingWeight = 1e-12
			return c
		}()},
		{"edge pad 1", func() nilm.PowerPlayConfig {
			c := nilm.DefaultPowerPlayConfig()
			c.EdgePad = 1
			return c
		}()},
		{"abs tolerance 60W", func() nilm.PowerPlayConfig {
			c := nilm.DefaultPowerPlayConfig()
			c.AbsToleranceW = 60
			return c
		}()},
		{"tolerance 15%", func() nilm.PowerPlayConfig {
			c := nilm.DefaultPowerPlayConfig()
			c.Tolerance = 0.15
			return c
		}()},
	}
	rep := &Report{
		ID:      "a2",
		Title:   "ablation: PowerPlay edge-matching design choices (mean error factor)",
		Headers: []string{"variant", "mean error", "fridge", "dryer"},
		Metrics: map[string]float64{},
	}
	for vi, v := range variants {
		inferred, err := nilm.PowerPlay(w.testMetered, w.models, v.cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation powerplay %q: %w", v.name, err)
		}
		res, err := nilm.Evaluate(w.truthTest, inferred)
		if err != nil {
			return nil, fmt.Errorf("ablation powerplay: %w", err)
		}
		var sum, fridge, dryer float64
		for _, r := range res {
			sum += r.ErrorFactor
			switch r.Device {
			case "fridge":
				fridge = r.ErrorFactor
			case "dryer":
				dryer = r.ErrorFactor
			}
		}
		mean := sum / float64(len(res))
		rep.Rows = append(rep.Rows, []string{v.name, f(mean), f(fridge), f(dryer)})
		rep.Metrics[fmt.Sprintf("mean_error_variant_%d", vi)] = mean
	}
	return rep, nil
}

// AblationFHMMOtherChain measures what the auxiliary "other loads" chain
// buys the FHMM baseline: without it, unmodeled loads must be explained by
// the tracked devices, inflating their error.
func AblationFHMMOtherChain(opts Options) (*Report, error) {
	w, err := buildNILMWorkload(opts)
	if err != nil {
		return nil, fmt.Errorf("ablation fhmm: %w", err)
	}
	// The 1-minute resamples are shared with Figure 2 via the workload's
	// cached FHMM artifacts; variants below train their own models.
	art, err := w.defaultFHMM()
	if err != nil {
		return nil, fmt.Errorf("ablation fhmm: %w", err)
	}
	train1m, test1m := art.train1m, art.test1m
	other1m, testAgg := art.other1m, art.testAgg

	type variant struct {
		name  string
		other *timeseries.Series
		cfg   nilm.FHMMConfig
	}
	small := nilm.DefaultFHMMConfig()
	small.OtherStates = 3
	variants := []variant{
		{"with other chain (8 states)", other1m, nilm.DefaultFHMMConfig()},
		{"with other chain (3 states)", other1m, small},
		{"no other chain", nil, nilm.DefaultFHMMConfig()},
	}
	rep := &Report{
		ID:      "a3",
		Title:   "ablation: FHMM auxiliary other-loads chain",
		Headers: []string{"variant", "mean error", "toaster", "fridge"},
		Metrics: map[string]float64{},
		Notes: []string{
			"without the auxiliary chain, every unmodeled load must be explained by the tracked devices",
		},
	}
	for vi, v := range variants {
		// The default variant is exactly the Figure 2 model; training and
		// decoding are deterministic, so the cached artifacts are the same
		// bytes a fresh train would produce.
		out := art.out
		if v.other != art.other1m || v.cfg != nilm.DefaultFHMMConfig() {
			fh, err := nilm.TrainFHMM(train1m, v.other, v.cfg)
			if err != nil {
				return nil, fmt.Errorf("ablation fhmm %q: %w", v.name, err)
			}
			if out, err = fh.Disaggregate(testAgg); err != nil {
				return nil, fmt.Errorf("ablation fhmm: %w", err)
			}
		}
		res, err := nilm.Evaluate(test1m, out)
		if err != nil {
			return nil, fmt.Errorf("ablation fhmm: %w", err)
		}
		var sum, toaster, fridge float64
		for _, r := range res {
			sum += r.ErrorFactor
			switch r.Device {
			case "toaster":
				toaster = r.ErrorFactor
			case "fridge":
				fridge = r.ErrorFactor
			}
		}
		mean := sum / float64(len(res))
		rep.Rows = append(rep.Rows, []string{v.name, f(mean), f(toaster), f(fridge)})
		rep.Metrics[fmt.Sprintf("mean_error_variant_%d", vi)] = mean
	}
	return rep, nil
}

// AblationSunSpotDataSpan sweeps how much telemetry SunSpot needs: its
// latitude fit rides on the seasonal day-length trend, so short spans
// should degrade sharply.
func AblationSunSpotDataSpan(opts Options) (*Report, error) {
	seed := opts.seed()
	spans := []int{30, 90, 180, 365}
	if opts.Quick {
		spans = []int{30, 120}
	}
	site := solarsim.Site{
		Name: "ablation-site", Lat: 42.3, Lon: -72.6, CapacityW: 6000,
		TiltDeg: 28, AzimuthDeg: 184, NoiseStd: 0.01,
	}
	start := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	maxDays := spans[len(spans)-1]
	field, err := weather.NewField(weather.DefaultFieldConfig(seed+400), start, maxDays*24, 42)
	if err != nil {
		return nil, fmt.Errorf("ablation sunspot: %w", err)
	}
	gen, err := solarsim.Generate(site, field, start, maxDays, time.Minute, seed)
	if err != nil {
		return nil, fmt.Errorf("ablation sunspot: %w", err)
	}
	rep := &Report{
		ID:      "a4",
		Title:   "ablation: SunSpot localization error vs telemetry span",
		Headers: []string{"days of data", "error km"},
		Metrics: map[string]float64{},
		Notes: []string{
			"latitude is identified by the seasonal day-length trend, so short spans degrade sharply",
		},
	}
	for _, days := range spans {
		sub := gen.Slice(0, days*1440)
		km := -1.0
		if est, err := sunspot.Localize(sub, sunspot.DefaultConfig()); err == nil {
			km = metrics.HaversineKm(site.Lat, site.Lon, est.Lat, est.Lon)
		}
		rep.Rows = append(rep.Rows, []string{fmt.Sprint(days), f1dp(km)})
		rep.Metrics[fmt.Sprintf("km_days_%d", days)] = km
	}
	return rep, nil
}

// AblationWeathermanResolution sweeps Weatherman's inputs: generation
// resolution and station-grid density.
func AblationWeathermanResolution(opts Options) (*Report, error) {
	seed := opts.seed()
	days := 60
	if opts.Quick {
		days = 30
	}
	start := time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)
	field, err := weather.NewField(weather.DefaultFieldConfig(seed+500), start, days*24, 42)
	if err != nil {
		return nil, fmt.Errorf("ablation weatherman: %w", err)
	}
	site := solarsim.Site{
		Name: "wm-site", Lat: 42.41, Lon: -72.44, CapacityW: 5000,
		TiltDeg: 25, AzimuthDeg: 180, NoiseStd: 0.01,
	}
	gen, err := solarsim.Generate(site, field, start, days, time.Minute, seed)
	if err != nil {
		return nil, fmt.Errorf("ablation weatherman: %w", err)
	}
	rep := &Report{
		ID:      "a5",
		Title:   "ablation: Weatherman vs data resolution and station density",
		Headers: []string{"generation step", "grid spacing", "error km"},
		Metrics: map[string]float64{},
	}
	for _, v := range []struct {
		step    time.Duration
		spacing float64
	}{
		{time.Hour, 0.25},
		{time.Hour, 1.0},
		{4 * time.Hour, 0.25},
		{24 * time.Hour, 0.25},
	} {
		stations, err := weather.StationGrid(field, 41, 44, -74, -71, v.spacing)
		if err != nil {
			return nil, fmt.Errorf("ablation weatherman: %w", err)
		}
		sub, err := gen.Resample(v.step)
		if err != nil {
			return nil, fmt.Errorf("ablation weatherman: %w", err)
		}
		km := -1.0
		if est, err := weatherman.Localize(sub, stations, weatherman.DefaultConfig()); err == nil {
			km = metrics.HaversineKm(site.Lat, site.Lon, est.Lat, est.Lon)
		}
		rep.Rows = append(rep.Rows, []string{v.step.String(), fmt.Sprintf("%.2f deg", v.spacing), f1dp(km)})
		rep.Metrics[fmt.Sprintf("km_step_%s_grid_%g", v.step, v.spacing)] = km
	}
	rep.Notes = append(rep.Notes,
		"the paper's claim that 1-hour data suffices holds; daily data destroys the signal")
	return rep, nil
}

// AblationShapingEnvelope sweeps the gateway shaping envelope quantile:
// lower quantiles spill more (leaking event timing) but pad less.
func AblationShapingEnvelope(opts Options) (*Report, error) {
	seed := opts.seed()
	days := 4
	if opts.Quick {
		days = 2
	}
	hcfg := home.DefaultConfig(seed + 600)
	hcfg.Days = days
	tr, err := home.Simulate(hcfg)
	if err != nil {
		return nil, fmt.Errorf("ablation shaping: %w", err)
	}
	vcfg := nettrace.DefaultConfig(seed + 601)
	vcfg.Days = days
	vcfg.Activity = tr.Active
	victim, err := nettrace.Simulate(vcfg)
	if err != nil {
		return nil, fmt.Errorf("ablation shaping: %w", err)
	}
	rep := &Report{
		ID:      "a6",
		Title:   "ablation: gateway shaping envelope quantile (padding vs queue delay)",
		Headers: []string{"quantile", "padding overhead", "max queue delay", "occ MCC after"},
		Metrics: map[string]float64{},
	}
	for _, q := range []float64{0.8, 0.95, 0.99, 0.999} {
		cfg := gateway.DefaultShapeConfig()
		cfg.EnvelopeQuantile = q
		shaped, report, err := gateway.Shape(victim, cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation shaping q=%v: %w", q, err)
		}
		occ, err := fingerprintOccupancy(shaped)
		if err != nil {
			return nil, fmt.Errorf("ablation shaping: %w", err)
		}
		ev, err := niom.EvaluateDaytime(tr.Occupancy, occ, 8, 23)
		if err != nil {
			return nil, fmt.Errorf("ablation shaping: %w", err)
		}
		rep.Rows = append(rep.Rows, []string{
			f(q), fmt.Sprintf("%.2fx", report.PaddingOverhead),
			report.MaxQueueDelay.Round(time.Second).String(), f(ev.MCC),
		})
		rep.Metrics[fmt.Sprintf("overhead_q_%g", q)] = report.PaddingOverhead
		rep.Metrics[fmt.Sprintf("occ_mcc_q_%g", q)] = ev.MCC
	}
	rep.Notes = append(rep.Notes,
		"no quantile leaks timing (bursts queue rather than spill); quantiles below ~p99 are dominated by the mean-rate stability floor, so the knob trades padding against burst-drain delay")
	return rep, nil
}
