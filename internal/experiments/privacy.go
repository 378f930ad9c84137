package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"privmem/internal/attack/niom"
	"privmem/internal/defense/dprivacy"
	"privmem/internal/defense/knob"
	"privmem/internal/defense/localiot"
	"privmem/internal/defense/zkmeter"
	"privmem/internal/home"
	"privmem/internal/meter"
	"privmem/internal/par"
	"privmem/internal/stats"
	"privmem/internal/timeseries"
)

// TableDifferentialPrivacy reproduces the §III-A argument: with
// Laplace-perturbed releases, grid-scale aggregates stay accurate while
// per-home analytics collapse, and epsilon tunes the tradeoff.
func TableDifferentialPrivacy(opts Options) (*Report, error) {
	seed := opts.seed()
	nHomes := 200
	if opts.Quick {
		nHomes = 40
	}
	w, err := dpWorld(opts)
	if err != nil {
		return nil, fmt.Errorf("table dp: %w", err)
	}
	traces, series := w.traces, w.series

	rep := &Report{
		ID:    "t5",
		Title: fmt.Sprintf("differential privacy over a %d-home feeder: aggregate utility vs per-home privacy", nHomes),
		Headers: []string{"epsilon", "aggregate rel err", "per-home NIOM MCC",
			"undefended MCC"},
		Metrics: map[string]float64{},
		Notes: []string{
			"smaller epsilon: worse aggregates, stronger per-home privacy — the knob the utility controls",
			"per-reading noise at sensitivity 5 kW destroys per-home inference until epsilon grows very large",
		},
	}

	// Undefended per-home baseline over a few probe homes. The probe meter
	// streams are part of the memoized world: meter.Read is a pure function
	// of (config, trace), so reading once and reusing across the epsilon
	// sweep (the original code re-read per epsilon) changes no bytes.
	probe := len(w.probeMeters)
	var baseMCCs []float64
	for i := 0; i < probe; i++ {
		pred, err := niom.DetectThreshold(w.probeMeters[i], niom.DefaultConfig())
		if err != nil {
			return nil, fmt.Errorf("table dp: %w", err)
		}
		ev, err := niom.Evaluate(traces[i].Occupancy, pred)
		if err != nil {
			return nil, fmt.Errorf("table dp: %w", err)
		}
		baseMCCs = append(baseMCCs, ev.MCC)
	}
	baseMCC := stats.Mean(baseMCCs)

	// Each epsilon row draws its noise from its own seeded mechanisms, so
	// the rows compute concurrently into fixed slots.
	epsilons := []float64{0.1, 0.5, 1, 5, 20, 50}
	type dpRow struct{ aggErr, perHome float64 }
	rows := make([]dpRow, len(epsilons))
	err = par.For(len(epsilons), func(e int) error {
		eps := epsilons[e]
		mech := dprivacy.Mechanism{Epsilon: eps, SensitivityW: 5000, Seed: seed + 11}
		agg, err := dprivacy.Aggregate(mech, series)
		if err != nil {
			return err
		}
		mccs := make([]float64, probe)
		for i := range mccs {
			noisy, err := dprivacy.PerturbSeries(dprivacy.Mechanism{
				Epsilon: eps, SensitivityW: 5000, Seed: seed + int64(i)*31,
			}, w.probeMeters[i])
			if err != nil {
				return err
			}
			pred, err := niom.DetectThreshold(noisy, niom.DefaultConfig())
			if err != nil {
				return err
			}
			ev, err := niom.Evaluate(traces[i].Occupancy, pred)
			if err != nil {
				return err
			}
			mccs[i] = ev.MCC
		}
		rows[e] = dpRow{agg.RelativeError, stats.Mean(mccs)}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("table dp: %w", err)
	}
	for e, eps := range epsilons {
		r := rows[e]
		rep.Rows = append(rep.Rows, []string{
			f(eps), f(r.aggErr), f(r.perHome), f(baseMCC),
		})
		rep.Metrics[fmt.Sprintf("agg_err_eps_%g", eps)] = r.aggErr
		rep.Metrics[fmt.Sprintf("mcc_eps_%g", eps)] = r.perHome
	}
	rep.Metrics["mcc_undefended"] = baseMCC
	return rep, nil
}

// dpWorkload is the memoized t5 world: the feeder population, its
// aggregate series view, and the probe homes' metered streams. Shared
// read-only (dprivacy perturbation clones before adding noise).
type dpWorkload struct {
	traces      []*home.Trace
	series      []*timeseries.Series
	probeMeters []*timeseries.Series
}

// dpWorldBuild builds (or returns the memoized) differential-privacy world.
func dpWorld(opts Options) (*dpWorkload, error) {
	return memoWorld(memoKey("dp", opts), func() (*dpWorkload, error) {
		seed := opts.seed()
		nHomes, days := 200, 3
		if opts.Quick {
			nHomes, days = 40, 2
		}
		traces, err := home.Population(seed+70, nHomes, days)
		if err != nil {
			return nil, err
		}
		w := &dpWorkload{traces: traces, series: make([]*timeseries.Series, len(traces))}
		for i, tr := range traces {
			w.series[i] = tr.Aggregate
		}
		probe := 5
		if probe > len(traces) {
			probe = len(traces)
		}
		for i := 0; i < probe; i++ {
			m, err := meter.Read(meter.DefaultConfig(seed+int64(i)), traces[i].Aggregate)
			if err != nil {
				return nil, err
			}
			w.probeMeters = append(w.probeMeters, m)
		}
		return w, nil
	})
}

// TableZKBilling reproduces §III-C ([29], [30]): the committed meter
// answers a month-long billing query with a verifiable proof and without
// raw data, and every tampering attempt is caught.
func TableZKBilling(opts Options) (*Report, error) {
	seed := opts.seed()
	// The home and its hourly billing readings are the memoized world; the
	// cryptographic commit/prove/verify flow below runs live every time.
	readings, err := memoWorld(memoKey("zk", opts), func() ([]meter.Reading, error) {
		intervals := 31 * 24 // a month of hourly readings
		if opts.Quick {
			intervals = 7 * 24
		}
		cfg := home.DefaultConfig(seed + 5)
		cfg.Days = intervals / 24
		tr, err := home.Simulate(cfg)
		if err != nil {
			return nil, err
		}
		mc := meter.DefaultConfig(seed)
		mc.Interval = time.Hour
		metered, err := meter.Read(mc, tr.Aggregate)
		if err != nil {
			return nil, err
		}
		return meter.BillingReadings(metered), nil
	})
	if err != nil {
		return nil, fmt.Errorf("table zk: %w", err)
	}

	g := zkmeter.NewGroup()
	// Commitment randomness comes from a seeded stream so the artifact is
	// reproducible (production meters must pass crypto/rand.Reader); the
	// commit/verify timings belong to the root benchmarks, not the report.
	m := zkmeter.NewMeter(g, rand.New(rand.NewSource(subSeed(seed, "zk-commitments"))))
	if err := m.RecordAll(readings); err != nil {
		return nil, fmt.Errorf("table zk: %w", err)
	}

	resp, err := m.Bill(0, len(readings), "billing-period")
	if err != nil {
		return nil, fmt.Errorf("table zk: %w", err)
	}

	verifyErr := zkmeter.VerifyBill(g, m.Published, resp, "billing-period")

	// Tamper cases.
	tamperTotal := resp
	tamperTotal.TotalWattHours += 100
	totalCaught := zkmeter.VerifyBill(g, m.Published, tamperTotal, "billing-period") != nil
	swapped := make([]zkmeter.Commitment, len(m.Published))
	copy(swapped, m.Published)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	// Swapping preserves the product, so the total still verifies — that is
	// correct behaviour (the bill is over the sum); dropping one must fail.
	dropCaught := zkmeter.VerifyBill(g, m.Published[1:], resp, "billing-period") != nil
	ctxCaught := zkmeter.VerifyBill(g, m.Published, resp, "other-period") != nil

	status := "ok"
	if verifyErr != nil {
		status = verifyErr.Error()
	}
	rep := &Report{
		ID:      "t6",
		Title:   "privacy-preserving committed meter: verifiable billing without raw data",
		Headers: []string{"operation", "result", "cost"},
		Rows: [][]string{
			{fmt.Sprintf("commit %d hourly readings", len(readings)), "ok", fmt.Sprintf("%d commitments", len(m.Published))},
			{"produce billing response + proof", fmt.Sprintf("%d Wh", resp.TotalWattHours), "1 proof"},
			{"utility verifies honest bill", status, "-"},
			{"tampered total detected", fmt.Sprint(totalCaught), "-"},
			{"dropped interval detected", fmt.Sprint(dropCaught), "-"},
			{"cross-period replay detected", fmt.Sprint(ctxCaught), "-"},
		},
		Metrics: map[string]float64{
			"billed_wh":        float64(resp.TotalWattHours),
			"true_wh":          float64(meter.TotalWattHours(readings)),
			"verify_ok":        boolMetric(verifyErr == nil),
			"tampering_caught": boolMetric(totalCaught && dropCaught && ctxCaught),
			"commitments":      float64(len(m.Published)),
		},
		Notes: []string{
			"the utility learns the monthly total (needed for billing) and nothing else",
			"commit/verify latency is measured by the root benchmarks (BenchmarkTableZKBilling)",
		},
	}
	return rep, nil
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// TableKnobFrontier reproduces §III-E: the user-controllable privacy knob's
// privacy/utility/cost frontier.
func TableKnobFrontier(opts Options) (*Report, error) {
	seed := opts.seed()
	cfg := home.DefaultConfig(seed + 9)
	cfg.Days = 7
	if opts.Quick {
		cfg.Days = 4
	}
	lambdas := []float64{0.2, 0.4, 0.6, 0.8, 1}
	points, err := knob.Frontier(cfg, lambdas, seed)
	if err != nil {
		return nil, fmt.Errorf("table knob: %w", err)
	}
	rep := &Report{
		ID:      "t7",
		Title:   "user-controllable privacy knob: privacy vs utility vs cost",
		Headers: []string{"lambda", "attack MCC", "privacy gain", "utility err", "extra kWh"},
		Metrics: map[string]float64{},
		Notes: []string{
			"lambda 0 is the undefended reference; the knob trades analytics distortion and energy for privacy",
		},
	}
	for _, p := range points {
		rep.Rows = append(rep.Rows, []string{
			f(p.Lambda), f(p.AttackMCC), f(p.PrivacyGain), f(p.UtilityErr),
			f1dp(p.ExtraEnergyWh / 1000),
		})
	}
	rep.Metrics["mcc_lambda_0"] = points[0].AttackMCC
	rep.Metrics["mcc_lambda_1"] = points[len(points)-1].AttackMCC
	rep.Metrics["privacy_gain_lambda_1"] = points[len(points)-1].PrivacyGain
	return rep, nil
}

// TableLocalIoT reproduces §III-D: the local-analytics pipeline delivers
// the same service with a vanishing privacy exposure.
func TableLocalIoT(opts Options) (*Report, error) {
	w, err := localIoTWorld(opts)
	if err != nil {
		return nil, fmt.Errorf("table localiot: %w", err)
	}
	cloud, err := localiot.CloudPipeline(w.tr, w.m)
	if err != nil {
		return nil, fmt.Errorf("table localiot: %w", err)
	}
	local, err := localiot.LocalPipeline(w.tr, w.m)
	if err != nil {
		return nil, fmt.Errorf("table localiot: %w", err)
	}
	dailyLeak, err := localiot.DailyTotalsLeak(w.vtr, w.vm)
	if err != nil {
		return nil, fmt.Errorf("table localiot: %w", err)
	}
	rep := &Report{
		ID:      "t10",
		Title:   "local IoT services: same service, minimal exposure",
		Headers: []string{"pipeline", "uplink bytes", "cloud-side NIOM MCC", "service MCC"},
		Rows: [][]string{
			{"cloud (raw 1-min readings)", fmt.Sprint(cloud.UplinkBytes), f(cloud.CloudMCC), f(cloud.ServiceMCC)},
			{"local hub (billing total only)", fmt.Sprint(local.UplinkBytes), f(local.CloudMCC), f(local.ServiceMCC)},
		},
		Metrics: map[string]float64{
			"cloud_mcc_cloud_pipeline": cloud.CloudMCC,
			"cloud_mcc_local_pipeline": local.CloudMCC,
			"uplink_reduction":         float64(cloud.UplinkBytes) / float64(local.UplinkBytes),
			"daily_totals_leak_mcc":    dailyLeak,
		},
		Notes: []string{
			fmt.Sprintf("releasing daily totals instead still leaks extended absences: MCC %.3f on a home with a weekend trip", dailyLeak),
		},
	}
	return rep, nil
}

// localIoTWorkload is the memoized t10 world: the service home with its
// metered stream, plus the vacation probe home for the daily-totals leak.
// Shared read-only.
type localIoTWorkload struct {
	tr, vtr *home.Trace
	m, vm   *timeseries.Series
}

// localIoTWorld builds (or returns the memoized) local-analytics world.
func localIoTWorld(opts Options) (*localIoTWorkload, error) {
	return memoWorld(memoKey("localiot", opts), func() (*localIoTWorkload, error) {
		seed := opts.seed()
		cfg := home.DefaultConfig(seed + 3)
		cfg.Days = 8
		if opts.Quick {
			cfg.Days = 4
		}
		tr, m, err := home.SimulateMetered(cfg, seed)
		if err != nil {
			return nil, err
		}
		// The daily-totals probe needs extended absences to have anything to
		// find: give the probe home a weekend trip.
		vcfg := home.DefaultConfig(seed + 4)
		vcfg.Days = 14
		vcfg.VacationDays = []int{5, 6, 12}
		vtr, vm, err := home.SimulateMetered(vcfg, seed+4)
		if err != nil {
			return nil, err
		}
		return &localIoTWorkload{tr: tr, vtr: vtr, m: m, vm: vm}, nil
	})
}
