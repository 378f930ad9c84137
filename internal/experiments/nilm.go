package experiments

import (
	"fmt"
	"sync"
	"time"

	"privmem/internal/attack/nilm"
	"privmem/internal/attack/niom"
	"privmem/internal/defense/battery"
	"privmem/internal/home"
	"privmem/internal/loads"
	"privmem/internal/timeseries"
)

// nilmWorkload builds the shared NILM evaluation home: high-rate metering,
// submetered ground truth, and a train/test split. Workloads are memoized
// and shared read-only across experiments and runs; consumers must not
// modify any field.
type nilmWorkload struct {
	step        time.Duration
	metered     *timeseries.Series
	models      []loads.Model
	truthTrain  map[string]*timeseries.Series
	truthTest   map[string]*timeseries.Series
	otherTrain  *timeseries.Series
	testMetered *timeseries.Series
	trace       *home.Trace

	// Derived FHMM artifacts (1-minute resamples and the default-config
	// trained model) are deterministic functions of the fields above, so
	// they are computed once per workload and shared by f2 and a3.
	fhmmOnce sync.Once
	fhmm     *fhmmArtifacts
	fhmmErr  error
}

// fhmmArtifacts are the FHMM baseline's standard inputs plus the
// default-config trained model and its disaggregation of the test window.
type fhmmArtifacts struct {
	train1m map[string]*timeseries.Series
	test1m  map[string]*timeseries.Series
	other1m *timeseries.Series
	testAgg *timeseries.Series
	model   *nilm.FHMM
	out     map[string]*timeseries.Series
}

// defaultFHMM resamples the workload to the FHMM's 1-minute input, trains
// the default-config model, and disaggregates the test window — once; every
// later call returns the cached artifacts. All steps are deterministic
// given the workload, so caching does not change any report byte.
func (w *nilmWorkload) defaultFHMM() (*fhmmArtifacts, error) {
	w.fhmmOnce.Do(func() {
		a := &fhmmArtifacts{
			train1m: map[string]*timeseries.Series{},
			test1m:  map[string]*timeseries.Series{},
		}
		coarse := func(s *timeseries.Series) (*timeseries.Series, error) {
			return s.Resample(time.Minute)
		}
		for name := range w.truthTrain {
			var err error
			if a.train1m[name], err = coarse(w.truthTrain[name]); err != nil {
				w.fhmmErr = err
				return
			}
			if a.test1m[name], err = coarse(w.truthTest[name]); err != nil {
				w.fhmmErr = err
				return
			}
		}
		var err error
		if a.other1m, err = coarse(w.otherTrain); err != nil {
			w.fhmmErr = err
			return
		}
		if a.testAgg, err = coarse(w.testMetered); err != nil {
			w.fhmmErr = err
			return
		}
		if a.model, err = nilm.TrainFHMM(a.train1m, a.other1m, nilm.DefaultFHMMConfig()); err != nil {
			w.fhmmErr = err
			return
		}
		if a.out, err = a.model.Disaggregate(a.testAgg); err != nil {
			w.fhmmErr = err
			return
		}
		w.fhmm = a
	})
	return w.fhmm, w.fhmmErr
}

// buildNILMWorkload returns the memoized shared workload for opts.
func buildNILMWorkload(opts Options) (*nilmWorkload, error) {
	return memoWorld(memoKey("nilm", opts), func() (*nilmWorkload, error) {
		return buildNILMWorkloadUncached(opts)
	})
}

func buildNILMWorkloadUncached(opts Options) (*nilmWorkload, error) {
	seed := opts.seed()
	days, trainDays := 12, 5
	if opts.Quick {
		days, trainDays = 5, 2
	}
	cfg := home.DefaultConfig(seed)
	cfg.Days = days
	cfg.Step = 10 * time.Second
	cfg.IncludeWaterHeater = false // the Figure 2 home heats water with gas
	tr, metered, err := home.SimulateMetered(cfg, seed)
	if err != nil {
		return nil, fmt.Errorf("nilm workload: %w", err)
	}
	w := &nilmWorkload{
		step:       cfg.Step,
		metered:    metered,
		truthTrain: map[string]*timeseries.Series{},
		truthTest:  map[string]*timeseries.Series{},
		trace:      tr,
	}
	split := trainDays * int(24*time.Hour/cfg.Step)
	other := tr.Aggregate.Slice(0, split)
	for _, name := range loads.TrackedDevices() {
		m, err := loads.Lookup(name)
		if err != nil {
			return nil, fmt.Errorf("nilm workload: %w", err)
		}
		w.models = append(w.models, m)
		w.truthTrain[name] = tr.Appliances[name].Slice(0, split)
		w.truthTest[name] = tr.Appliances[name].Slice(split, tr.Aggregate.Len())
		other, err = other.Sub(w.truthTrain[name])
		if err != nil {
			return nil, fmt.Errorf("nilm workload: %w", err)
		}
	}
	w.otherTrain = other
	w.testMetered = metered.Slice(split, metered.Len())
	return w, nil
}

// Figure2Disaggregation reproduces Figure 2: disaggregation error factor of
// PowerPlay versus the conventional FHMM NILM baseline for the five tracked
// devices (toaster, fridge, freezer, dryer, HRV).
func Figure2Disaggregation(opts Options) (*Report, error) {
	w, err := buildNILMWorkload(opts)
	if err != nil {
		return nil, fmt.Errorf("figure 2: %w", err)
	}

	pp, err := nilm.PowerPlay(w.testMetered, w.models, nilm.DefaultPowerPlayConfig())
	if err != nil {
		return nil, fmt.Errorf("figure 2: %w", err)
	}
	ppErr, err := nilm.Evaluate(w.truthTest, pp)
	if err != nil {
		return nil, fmt.Errorf("figure 2: %w", err)
	}

	// FHMM consumes its standard 1-minute input; the resamples, training,
	// and decode are cached on the workload.
	art, err := w.defaultFHMM()
	if err != nil {
		return nil, fmt.Errorf("figure 2: %w", err)
	}
	fhErr, err := nilm.Evaluate(art.test1m, art.out)
	if err != nil {
		return nil, fmt.Errorf("figure 2: %w", err)
	}

	fhBy := map[string]nilm.DeviceError{}
	for _, r := range fhErr {
		fhBy[r.Device] = r
	}
	rep := &Report{
		ID:      "f2",
		Title:   "disaggregation error factor: PowerPlay vs conventional FHMM",
		Headers: []string{"device", "PowerPlay", "FHMM", "actual kWh"},
		Metrics: map[string]float64{},
		Notes: []string{
			"paper: PowerPlay below FHMM for every device, gap largest for low-power loads; dryer accurate for both",
		},
	}
	// Present in the paper's order.
	byName := map[string]nilm.DeviceError{}
	for _, r := range ppErr {
		byName[r.Device] = r
	}
	var wins int
	for _, name := range loads.TrackedDevices() {
		p, fhr := byName[name], fhBy[name]
		rep.Rows = append(rep.Rows, []string{
			name, f(p.ErrorFactor), f(fhr.ErrorFactor), f1dp(p.ActualWh / 1000),
		})
		rep.Metrics["powerplay_"+name] = p.ErrorFactor
		rep.Metrics["fhmm_"+name] = fhr.ErrorFactor
		if p.ErrorFactor < fhr.ErrorFactor {
			wins++
		}
	}
	rep.Metrics["powerplay_wins"] = float64(wins)
	return rep, nil
}

// TableBehaviorInference reproduces the §II-A behaviour inferences drawn
// from NILM output: laundry days, breakfast habits, and background
// appliance duty cycles, compared against the simulator's ground-truth
// diary.
func TableBehaviorInference(opts Options) (*Report, error) {
	w, err := buildNILMWorkload(opts)
	if err != nil {
		return nil, fmt.Errorf("table behavior: %w", err)
	}
	pp, err := nilm.PowerPlay(w.metered, w.models, nilm.DefaultPowerPlayConfig())
	if err != nil {
		return nil, fmt.Errorf("table behavior: %w", err)
	}

	onRuns := func(s *timeseries.Series) []time.Time {
		var starts []time.Time
		on := false
		for i, v := range s.Values {
			if v > 50 && !on {
				starts = append(starts, s.TimeAt(i))
				on = true
			} else if v <= 50 && on {
				on = false
			}
		}
		return starts
	}
	weekdayMode := func(ts []time.Time) string {
		counts := map[time.Weekday]int{}
		for _, t := range ts {
			counts[t.Weekday()]++
		}
		best, bestN := time.Sunday, -1
		for d := time.Sunday; d <= time.Saturday; d++ {
			if counts[d] > bestN {
				best, bestN = d, counts[d]
			}
		}
		if bestN <= 0 {
			return "none"
		}
		return best.String()
	}

	// Inferred from the attack's virtual meters.
	infDryer := onRuns(pp[loads.NameDryer])
	infToaster := onRuns(pp[loads.NameToaster])
	infFridge := onRuns(pp[loads.NameFridge])
	// Ground truth from the diary.
	var truDryer, truToaster []time.Time
	for _, ev := range w.trace.Events {
		switch ev.Device {
		case loads.NameDryer:
			truDryer = append(truDryer, ev.Start)
		case loads.NameToaster:
			truToaster = append(truToaster, ev.Start)
		}
	}
	truFridge := onRuns(w.trace.Appliances[loads.NameFridge])
	days := float64(w.metered.Len()) * w.step.Hours() / 24

	rep := &Report{
		ID:      "t2",
		Title:   "behavioural inferences from NILM output vs ground truth",
		Headers: []string{"inference", "from attack", "ground truth"},
		Rows: [][]string{
			{"laundry day (dryer runs)", weekdayMode(infDryer), weekdayMode(truDryer)},
			{"dryer runs per week",
				f1dp(float64(len(infDryer)) / days * 7), f1dp(float64(len(truDryer)) / days * 7)},
			{"breakfasts at home per day (toaster)",
				f1dp(float64(len(infToaster)) / days), f1dp(float64(len(truToaster)) / days)},
			{"fridge cycles per day",
				f1dp(float64(len(infFridge)) / days), f1dp(float64(len(truFridge)) / days)},
		},
		Metrics: map[string]float64{
			"dryer_runs_inferred":   float64(len(infDryer)),
			"dryer_runs_true":       float64(len(truDryer)),
			"toaster_uses_inferred": float64(len(infToaster)),
			"toaster_uses_true":     float64(len(truToaster)),
		},
		Notes: []string{
			"the paper's point: disaggregated loads reveal daily routines (laundry schedule, cooking habits)",
		},
	}
	return rep, nil
}

// TableBatteryDefense reproduces the §III-B battery-defense comparison
// ([26], [27]): NILL and load stepping versus the PowerPlay NILM attack and
// the NIOM occupancy attack, across battery sizes, with cost metrics.
func TableBatteryDefense(opts Options) (*Report, error) {
	w, err := batteryWorld(opts)
	if err != nil {
		return nil, fmt.Errorf("table battery: %w", err)
	}
	load := w.load

	edgeCount := func(s *timeseries.Series) int { return len(s.DetectEdges(100, 3)) }
	mcc := func(s *timeseries.Series) (float64, error) {
		pred, err := niom.DetectThreshold(s, niom.DefaultConfig())
		if err != nil {
			return 0, err
		}
		ev, err := niom.Evaluate(w.occupancy, pred)
		if err != nil {
			return 0, err
		}
		return ev.MCC, nil
	}
	baseMCC, err := mcc(load)
	if err != nil {
		return nil, fmt.Errorf("table battery: %w", err)
	}

	rep := &Report{
		ID:    "t4",
		Title: "battery load-hiding defenses vs NILM/NIOM, by battery size",
		Headers: []string{"defense", "battery", "edges", "NIOM MCC",
			"cycled kWh", "saturated %"},
		Rows: [][]string{{
			"none", "-", fmt.Sprint(edgeCount(load)), f(baseMCC), "0.0", "0.0",
		}},
		Metrics: map[string]float64{"mcc_undefended": baseMCC, "edges_undefended": float64(edgeCount(load))},
		Notes: []string{
			"bigger batteries hide more switching events (fewer residual edges) at higher cycling cost; MCC is already near chance for all sizes",
			"unlike CHPr, the battery is pure cost: it serves no other purpose",
		},
	}
	sizes := []struct {
		label string
		b     battery.Battery
	}{
		{"3.4 kWh / 1.7 kW", battery.Battery{CapacityWh: 3375, MaxChargeW: 1700, MaxDischargeW: 1700, Efficiency: 0.95, InitialSoC: 0.5}},
		{"6.8 kWh / 3.3 kW", battery.Battery{CapacityWh: 6750, MaxChargeW: 3300, MaxDischargeW: 3300, Efficiency: 0.95, InitialSoC: 0.5}},
		{"13.5 kWh / 5 kW", battery.DefaultBattery()},
	}
	for _, sz := range sizes {
		nill, err := battery.NILL(load, sz.b)
		if err != nil {
			return nil, fmt.Errorf("table battery: %w", err)
		}
		stepres, err := battery.Stepping(load, sz.b, 500)
		if err != nil {
			return nil, fmt.Errorf("table battery: %w", err)
		}
		for _, entry := range []struct {
			name string
			res  *battery.Result
		}{{"NILL", nill}, {"stepping-500W", stepres}} {
			m, err := mcc(entry.res.Grid)
			if err != nil {
				return nil, fmt.Errorf("table battery: %w", err)
			}
			rep.Rows = append(rep.Rows, []string{
				entry.name, sz.label,
				fmt.Sprint(edgeCount(entry.res.Grid)), f(m),
				f1dp(entry.res.ThroughputWh / 1000),
				f1dp(100 * float64(entry.res.SaturatedSteps) / float64(load.Len())),
			})
		}
	}
	last, err := battery.NILL(load, battery.DefaultBattery())
	if err != nil {
		return nil, fmt.Errorf("table battery: %w", err)
	}
	m, err := mcc(last.Grid)
	if err != nil {
		return nil, fmt.Errorf("table battery: %w", err)
	}
	rep.Metrics["mcc_nill_large"] = m
	rep.Metrics["edges_nill_large"] = float64(edgeCount(last.Grid))
	return rep, nil
}

// batteryWorkload is the memoized t4 world: the home's metered load and
// the occupancy ground truth the defense is scored against. Shared
// read-only (battery defenses allocate their own grid series).
type batteryWorkload struct {
	load      *timeseries.Series
	occupancy *timeseries.Series
}

// batteryWorld builds (or returns the memoized) battery-defense world.
func batteryWorld(opts Options) (*batteryWorkload, error) {
	return memoWorld(memoKey("battery", opts), func() (*batteryWorkload, error) {
		seed := opts.seed()
		days := 7
		if opts.Quick {
			days = 3
		}
		cfg := home.DefaultConfig(seed + 7)
		cfg.Days = days
		tr, load, err := home.SimulateMetered(cfg, seed)
		if err != nil {
			return nil, err
		}
		return &batteryWorkload{load: load, occupancy: tr.Occupancy}, nil
	})
}
