package main

import (
	"fmt"
	"time"

	"privmem/internal/attack/fingerprint"
	"privmem/internal/attack/nilm"
	"privmem/internal/attack/niom"
	"privmem/internal/attack/sunspot"
	"privmem/internal/attack/weatherman"
	"privmem/internal/defense/gateway"
	"privmem/internal/hmm"
	"privmem/internal/home"
	"privmem/internal/loads"
	"privmem/internal/meter"
	"privmem/internal/nettrace"
	"privmem/internal/solarsim"
	"privmem/internal/timeseries"
	"privmem/internal/weather"
)

// childProbes times one call into each simulator and attack at the input
// shapes the quick suite gives it, and the fleet's per-day and per-sample
// calls at the fleet's shapes. The shapes are copied from
// internal/experiments and internal/fleet, whose builders are unexported.
// Each call runs once, cold, in this fresh process.
func childProbes(seed int64, tr *tracer, ready func()) (childResult, error) {
	res := childResult{Layers: map[string]float64{}}
	ready()
	timed := func(name string, f func() error) error {
		s, t := tr.begin(name, -1)
		err := f()
		res.Layers[name+"_ms"] = ms(tr.end(s, t))
		res.Attempted++
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	for _, probe := range []func(int64, func(string, func() error) error, map[string]float64) error{
		solarProbes, networkProbes, nilmProbes, fleetProbes,
	} {
		if err := probe(seed, timed, res.Layers); err != nil {
			return res, err
		}
	}
	return res, nil
}

// solarProbes: f5/t3 at quick scale (90 days of 1-minute telemetry, a
// 0.75° station grid).
func solarProbes(seed int64, timed func(string, func() error) error, _ map[string]float64) error {
	start := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	const days = 90
	var (
		field *weather.Field
		gen   *timeseries.Series
		err   error
	)
	if err := timed("weather.field", func() error {
		field, err = weather.NewField(weather.DefaultFieldConfig(seed+900), start, days*24, 41)
		return err
	}); err != nil {
		return err
	}
	stations, err := weather.StationGrid(field, 35, 47, -89, -71, 0.75)
	if err != nil {
		return err
	}
	site := solarsim.Fleet(seed + 7)[0]
	if err := timed("solarsim.generate", func() error {
		gen, err = solarsim.Generate(site, field, start, days, time.Minute, seed)
		return err
	}); err != nil {
		return err
	}
	if err := timed("sunspot.localize", func() error {
		_, err := sunspot.Localize(gen, sunspot.DefaultConfig())
		return err
	}); err != nil {
		return err
	}
	return timed("weatherman.localize", func() error {
		hourly, err := gen.Resample(time.Hour)
		if err != nil {
			return err
		}
		_, err = weatherman.Localize(hourly, stations, weatherman.DefaultConfig())
		return err
	})
}

// networkProbes: t8/t9 at quick scale (a 2-day lab capture, a 3-day
// victim capture coupled to a home's activity).
func networkProbes(seed int64, timed func(string, func() error) error, _ map[string]float64) error {
	labCfg := nettrace.DefaultConfig(seed + 1)
	labCfg.Days = 2
	labCfg.Counts = map[nettrace.Class]int{}
	for _, c := range nettrace.Classes() {
		labCfg.Counts[c] = 1
	}
	lab, err := nettrace.Simulate(labCfg)
	if err != nil {
		return err
	}
	hcfg := home.DefaultConfig(seed + 21)
	hcfg.Days = 3
	tr, err := home.Simulate(hcfg)
	if err != nil {
		return err
	}
	var (
		victim *nettrace.Capture
		clf    *fingerprint.Classifier
	)
	if err := timed("nettrace.simulate", func() error {
		vcfg := nettrace.DefaultConfig(seed + 2)
		vcfg.Days = 3
		vcfg.Activity = tr.Active
		victim, err = nettrace.Simulate(vcfg)
		return err
	}); err != nil {
		return err
	}
	if err := timed("fingerprint.train", func() error {
		clf, err = fingerprint.Train(lab, time.Hour)
		return err
	}); err != nil {
		return err
	}
	if err := timed("fingerprint.identify", func() error {
		_, err := fingerprint.Identify(clf, victim)
		return err
	}); err != nil {
		return err
	}
	return timed("gateway.shape", func() error {
		_, _, err := gateway.Shape(victim, gateway.DefaultShapeConfig())
		return err
	})
}

// nilmProbes: f2 at quick scale (5 days at 10 s, FHMM trained on the
// first 2 days at 1 minute, decoding the remaining 3).
func nilmProbes(seed int64, timed func(string, func() error) error, _ map[string]float64) error {
	cfg := home.DefaultConfig(seed)
	cfg.Days = 5
	cfg.Step = 10 * time.Second
	cfg.IncludeWaterHeater = false
	var (
		tr      *home.Trace
		metered *timeseries.Series
		err     error
	)
	if err := timed("home.simulate", func() error {
		tr, err = home.Simulate(cfg)
		return err
	}); err != nil {
		return err
	}
	if err := timed("meter.read", func() error {
		mc := meter.DefaultConfig(seed)
		mc.Interval = cfg.Step
		metered, err = meter.Read(mc, tr.Aggregate)
		return err
	}); err != nil {
		return err
	}
	split := 2 * int(24*time.Hour/cfg.Step)
	train := map[string]*timeseries.Series{}
	other := tr.Aggregate.Slice(0, split)
	for _, name := range loads.TrackedDevices() {
		s := tr.Appliances[name].Slice(0, split)
		if other, err = other.Sub(s); err != nil {
			return err
		}
		if train[name], err = s.Resample(time.Minute); err != nil {
			return err
		}
	}
	if other, err = other.Resample(time.Minute); err != nil {
		return err
	}
	test, err := metered.Slice(split, metered.Len()).Resample(time.Minute)
	if err != nil {
		return err
	}
	model, err := nilm.TrainFHMM(train, other, nilm.DefaultFHMMConfig())
	if err != nil {
		return err
	}
	return timed("hmm.decode", func() error {
		_, err := model.Disaggregate(test)
		return err
	})
}

// fleetProbes: one fleet chunk's calls (a family-archetype day at
// 1-minute steps, metered at 15 minutes, with its LAN day), and the
// cost of the FHMM stream decoder per sample and of the online NIOM
// detector per home-window.
func fleetProbes(seed int64, timed func(string, func() error) error, layers map[string]float64) error {
	start := time.Date(2017, 1, 2, 0, 0, 0, 0, time.UTC)
	hcfg := home.DefaultConfig(seed)
	hcfg.Start, hcfg.Days, hcfg.Step = start, 1, time.Minute
	hcfg.Occupants, hcfg.WakeHour, hcfg.SleepHour = 4, 6.5, 23
	hcfg.LeaveHour, hcfg.ReturnHour, hcfg.EmploymentProb, hcfg.ActivityRatePerHour = 8, 16.5, 0.9, 2.2
	var (
		tr  *home.Trace
		agg *timeseries.Series
		err error
	)
	if err := timed("home.simulate_day", func() error {
		tr, err = home.Simulate(hcfg)
		return err
	}); err != nil {
		return err
	}
	if err := timed("meter.read_day", func() error {
		agg, err = meter.Read(meter.Config{Seed: seed, Interval: 15 * time.Minute, QuantizationW: 1}, tr.Aggregate)
		return err
	}); err != nil {
		return err
	}
	if err := timed("nettrace.simulate_day", func() error {
		_, err := nettrace.Simulate(nettrace.Config{
			Seed: seed, Start: start, Days: 1, Activity: tr.Active,
			Counts: map[nettrace.Class]int{
				nettrace.ClassCamera: 2, nettrace.ClassThermostat: 1,
				nettrace.ClassSmartPlug: 4, nettrace.ClassTV: 2,
				nettrace.ClassSpeaker: 3, nettrace.ClassHub: 1,
				nettrace.ClassBulb: 8, nettrace.ClassDoorbell: 1,
			},
		})
		return err
	}); err != nil {
		return err
	}

	// The family archetype's two-chain model (fleet.archFactorial).
	f, err := hmm.NewFactorial([]*hmm.Model{
		{Initial: []float64{0.6, 0.4}, Trans: [][]float64{{0.85, 0.15}, {0.3, 0.7}}, Means: []float64{35, 160}, Stds: []float64{20, 45}},
		{Initial: []float64{0.7, 0.3}, Trans: [][]float64{{0.9, 0.1}, {0.25, 0.75}}, Means: []float64{0, 350 + 180*2.2}, Stds: []float64{30, 60 + 40*0.2}},
	}, 40+6)
	if err != nil {
		return err
	}
	const pushes = 1 << 16
	const window = 4 // samples per 1-hour window at 15-minute steps
	xs := agg.Values
	for _, p := range []struct {
		name string
		mk   func() (*hmm.StreamDecoder, error)
	}{
		{"hmm.stream_push_us", func() (*hmm.StreamDecoder, error) { return f.NewStreamDecoderBeam(window, hmm.Beam{}) }},
		{"hmm.stream_push_dense_us", func() (*hmm.StreamDecoder, error) { return f.NewStreamDecoder(window) }},
	} {
		d, err := p.mk()
		if err != nil {
			return err
		}
		t := time.Now()
		for i := 0; i < pushes; i++ {
			d.Push(xs[i%len(xs)])
		}
		layers[p.name] = float64(time.Since(t).Nanoseconds()) / 1e3 / pushes
	}

	st, err := niom.NewStream(niom.Config{Window: time.Hour}, 15*time.Minute, 8, niom.ModeThreshold)
	if err != nil {
		return err
	}
	sc := &niom.Scratch{}
	t := time.Now()
	for i := 0; i < pushes; i++ {
		st.Push(xs[i%len(xs)], sc)
	}
	layers["niom.stream_push_ns"] = float64(time.Since(t).Nanoseconds()) / (pushes / window)
	return nil
}
