package experiments

import (
	"fmt"
	"time"

	"privmem/internal/attack/niom"
	"privmem/internal/defense/chpr"
	"privmem/internal/home"
	"privmem/internal/meter"
	"privmem/internal/par"
	"privmem/internal/stats"
	"privmem/internal/timeseries"
)

// Figure1HomeTraces reproduces Figure 1: one day (8am-11pm) of 1-minute
// power overlaid with binary occupancy for two homes — a calmer Home-A and
// a peakier Home-B. The report rows are hourly summaries; the full
// 1-minute series is exported by cmd/figures -csv.
func Figure1HomeTraces(opts Options) (*Report, error) {
	homes, _, err := figure1Series(opts)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:      "f1",
		Title:   "power vs. occupancy overlay, Home-A and Home-B (8am-11pm)",
		Headers: []string{"hour", "A power (kW)", "A occ", "B power (kW)", "B occ"},
		Metrics: map[string]float64{},
		Notes: []string{
			"expect occupied hours to be higher-mean and burstier; Home-B peakier than Home-A",
		},
	}
	for h := 8; h < 23; h++ {
		row := []string{fmt.Sprintf("%02d:00", h)}
		for _, hd := range homes {
			from := hd.power.Start.Add(time.Duration(h) * time.Hour)
			w := hd.power.Window(from, from.Add(time.Hour))
			o := hd.occ.Window(from, from.Add(time.Hour))
			row = append(row, f(w.Mean()/1000), f1dp(o.Mean()))
		}
		rep.Rows = append(rep.Rows, row)
	}
	for i, hd := range homes {
		name := string(rune('A' + i))
		var occVals, powVals []float64
		for j := range hd.power.Values {
			occVals = append(occVals, hd.occ.Values[j])
			powVals = append(powVals, hd.power.Values[j])
		}
		if r, err := stats.Pearson(occVals, powVals); err == nil {
			rep.Metrics["corr_power_occupancy_"+name] = r
		}
		rep.Metrics["peak_kw_"+name] = hd.power.Max() / 1000
	}
	return rep, nil
}

// figure1Home bundles one home's day of data.
type figure1Home struct {
	power, occ *timeseries.Series
}

// figure1Series builds the two homes' day-long series (also used by the
// CSV export). Like the paper's figure, the day must actually show the
// phenomenon — occupied and unoccupied periods both present — so each home
// deterministically scans forward from its base seed until it draws such a
// day. The seed scan (up to 25 simulations per home) makes this one of the
// costlier worlds, so it is memoized.
func figure1Series(opts Options) ([]figure1Home, []string, error) {
	homes, err := memoWorld(opts.CacheKey("figure1"), func() ([]figure1Home, error) {
		h, _, err := figure1SeriesUncached(opts)
		return h, err
	})
	if err != nil {
		return nil, nil, err
	}
	return homes, []string{"Home-A", "Home-B"}, nil
}

func figure1SeriesUncached(opts Options) ([]figure1Home, []string, error) {
	seed := opts.seed()
	cfgA := home.DefaultConfig(seed)
	cfgA.Days = 1
	cfgA.Occupants = 1
	cfgA.ActivityRatePerHour = 1.0
	cfgA.IncludeWaterHeater = false // Home-A peaks ~3 kW as in the paper
	cfgA.LaundryDays = nil

	cfgB := home.DefaultConfig(seed + 1)
	cfgB.Days = 1
	cfgB.Occupants = 3
	cfgB.ActivityRatePerHour = 2.2
	cfgB.LaundryDays = []time.Weekday{cfgB.Start.Weekday()}

	// Each home scans its own seeds, so the two scans run concurrently into
	// fixed slots.
	cfgs := []home.Config{cfgA, cfgB}
	homes := make([]figure1Home, len(cfgs))
	err := par.For(len(cfgs), func(i int) error {
		cfg := cfgs[i]
		for attempt := int64(0); attempt < 25; attempt++ {
			cfg.Seed += attempt
			tr, m, err := home.SimulateMetered(cfg, cfg.Seed)
			if err != nil {
				return fmt.Errorf("figure 1: %w", err)
			}
			if occ := tr.Occupancy.Mean(); occ > 0.3 && occ < 0.95 {
				homes[i] = figure1Home{power: m, occ: tr.Occupancy}
				return nil
			}
		}
		return fmt.Errorf("figure 1: no representative day within 25 seeds of %d", cfg.Seed)
	})
	if err != nil {
		return nil, nil, err
	}
	return homes, []string{"Home-A", "Home-B"}, nil
}

// Figure1CSV renders the full 1-minute series of Figure 1 as CSV rows
// (minute, powerA, occA, powerB, occB).
func Figure1CSV(opts Options) ([]string, error) {
	homes, _, err := figure1Series(opts)
	if err != nil {
		return nil, err
	}
	out := []string{"minute,power_a_w,occ_a,power_b_w,occ_b"}
	a, b := homes[0], homes[1]
	for i := 0; i < a.power.Len(); i++ {
		out = append(out, fmt.Sprintf("%d,%.1f,%.0f,%.1f,%.0f",
			i, a.power.Values[i], a.occ.Values[i], b.power.Values[i], b.occ.Values[i]))
	}
	return out, nil
}

// Figure6CHPr reproduces Figure 6: a week-long home trace before and after
// the CHPr water-heater mask, scored by the NIOM attacker's MCC. The paper
// reports 0.44 -> 0.045 (a factor of ~10, near random prediction).
func Figure6CHPr(opts Options) (*Report, error) {
	seed := opts.seed()
	w, err := chprWorld(opts)
	if err != nil {
		return nil, fmt.Errorf("figure 6: %w", err)
	}
	tr, base, masked := w.tr, w.base, w.masked
	orig, defended := w.orig, w.defended

	score := func(trace *timeseries.Series, mseed int64) (niom.Evaluation, error) {
		m, err := meter.Read(meter.DefaultConfig(mseed), trace)
		if err != nil {
			return niom.Evaluation{}, err
		}
		pred, err := niom.DetectThreshold(m, niom.DefaultConfig())
		if err != nil {
			return niom.Evaluation{}, err
		}
		return niom.Evaluate(tr.Occupancy, pred)
	}
	evO, err := score(orig, seed+1)
	if err != nil {
		return nil, fmt.Errorf("figure 6: %w", err)
	}
	evD, err := score(defended, seed+2)
	if err != nil {
		return nil, fmt.Errorf("figure 6: %w", err)
	}

	rep := &Report{
		ID:      "f6",
		Title:   "CHPr water-heater masking vs. NIOM occupancy detection",
		Headers: []string{"trace", "NIOM MCC", "accuracy", "heater kWh", "comfort violations"},
		Rows: [][]string{
			{"original (thermostat heater)", f(evO.MCC), f(evO.Accuracy),
				f1dp(base.EnergyWh / 1000), fmt.Sprint(base.ComfortViolations)},
			{"CHPr-masked", f(evD.MCC), f(evD.Accuracy),
				f1dp(masked.EnergyWh / 1000), fmt.Sprint(masked.ComfortViolations)},
		},
		Metrics: map[string]float64{
			"mcc_original": evO.MCC,
			"mcc_chpr":     evD.MCC,
			"energy_overhead_frac": (masked.EnergyWh - base.EnergyWh) /
				base.EnergyWh,
		},
		Notes: []string{
			"paper: MCC 0.44 -> 0.045 (~10x, near random prediction)",
			"hot water service preserved: comfort violations must be 0",
		},
	}
	if evD.MCC != 0 {
		rep.Metrics["mcc_reduction_factor"] = evO.MCC / evD.MCC
	}
	return rep, nil
}

// chprWorkload is the memoized Figure 6 world: the gas-heated home plus
// the deterministic thermostat-baseline and CHPr-masked heater traces and
// the two combined aggregates the attacker scores. Shared read-only.
type chprWorkload struct {
	tr             *home.Trace
	base, masked   *chpr.Result
	orig, defended *timeseries.Series
}

// chprWorld builds (or returns the memoized) CHPr evaluation world.
func chprWorld(opts Options) (*chprWorkload, error) {
	return memoWorld(opts.CacheKey("chpr"), func() (*chprWorkload, error) {
		seed := opts.seed()
		cfg := home.DefaultConfig(seed + 101)
		cfg.Days = 7
		if opts.Quick {
			cfg.Days = 4
		}
		cfg.IncludeWaterHeater = false // the heater is simulated below
		tr, err := home.Simulate(cfg)
		if err != nil {
			return nil, err
		}
		// The thermostat baseline and the CHPr mask each run their own tank
		// over the shared, read-only trace, so they run concurrently.
		tank := chpr.DefaultTank()
		w := &chprWorkload{tr: tr}
		err = par.Do(func() (err error) {
			if w.base, err = chpr.Baseline(tank, tr.WaterDraws, tr.Aggregate); err != nil {
				return err
			}
			w.orig, err = tr.Aggregate.Add(w.base.HeaterPower)
			return err
		}, func() (err error) {
			if w.masked, err = chpr.Mask(tank, chpr.DefaultConfig(seed), tr.Aggregate, tr.WaterDraws); err != nil {
				return err
			}
			w.defended, err = tr.Aggregate.Add(w.masked.HeaterPower)
			return err
		})
		if err != nil {
			return nil, err
		}
		return w, nil
	})
}

// TableNIOMAccuracy reproduces the in-text claim that NIOM reaches 70-90%
// occupancy-detection accuracy across a range of homes [1], [14], using
// both detectors on a diverse simulated population. Accuracy is evaluated
// over waking hours (8am-11pm, the span of the paper's Figure 1):
// power-only detectors cannot observe sleeping occupants.
func TableNIOMAccuracy(opts Options) (*Report, error) {
	nHomes, days := 12, 7
	if opts.Quick {
		nHomes, days = 4, 4
	}
	rep := &Report{
		ID:    "t1",
		Title: "NIOM occupancy-detection accuracy across homes (waking hours)",
		Headers: []string{"home", "occupants", "threshold acc", "threshold MCC",
			"hmm acc", "hmm MCC"},
		Metrics: map[string]float64{},
		Notes:   []string{"paper: accuracies of 70-90% across homes"},
	}
	pop, err := niomPopulation(opts, nHomes, days)
	if err != nil {
		return nil, fmt.Errorf("table niom: %w", err)
	}
	// Each home's two detectors only read its memoized streams, so the
	// homes are scored concurrently into fixed slots.
	type niomRow struct{ thr, hmm niom.Evaluation }
	rows := make([]niomRow, nHomes)
	err = par.For(nHomes, func(i int) error {
		m, occ := pop[i].metered, pop[i].occupancy
		predT, err := niom.DetectThreshold(m, niom.DefaultConfig())
		if err != nil {
			return err
		}
		if rows[i].thr, err = niom.EvaluateDaytime(occ, predT, 8, 23); err != nil {
			return err
		}
		predH, err := niom.DetectHMM(m, niom.DefaultConfig())
		if err != nil {
			return err
		}
		rows[i].hmm, err = niom.EvaluateDaytime(occ, predH, 8, 23)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("table niom: %w", err)
	}
	accs := make([]float64, nHomes)
	for i, r := range rows {
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("home-%02d", i+1), fmt.Sprint(pop[i].occupants),
			f(r.thr.Accuracy), f(r.thr.MCC), f(r.hmm.Accuracy), f(r.hmm.MCC),
		})
		accs[i] = r.thr.Accuracy
	}
	rep.Metrics["threshold_acc_mean"] = stats.Mean(accs)
	rep.Metrics["threshold_acc_min"] = stats.Quantile(accs, 0)
	rep.Metrics["threshold_acc_max"] = stats.Quantile(accs, 1)
	return rep, nil
}

// niomHome is one memoized t1 population member. Shared read-only.
type niomHome struct {
	occupants int
	metered   *timeseries.Series
	occupancy *timeseries.Series
}

// niomPopulation builds (or returns the memoized) t1 home population: the
// diverse simulated homes and their metered streams. Detection runs live.
func niomPopulation(opts Options, nHomes, days int) ([]niomHome, error) {
	return memoWorld(opts.CacheKey("niompop"), func() ([]niomHome, error) {
		seed := opts.seed()
		// Each home owns its seeded generators, so the homes simulate
		// concurrently into fixed slots.
		pop := make([]niomHome, nHomes)
		err := par.For(nHomes, func(i int) error {
			cfg := home.RandomConfig(seed, i)
			cfg.Days = days
			tr, m, err := home.SimulateMetered(cfg, seed+int64(i))
			if err != nil {
				return err
			}
			pop[i] = niomHome{occupants: cfg.Occupants, metered: m, occupancy: tr.Occupancy}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return pop, nil
	})
}
