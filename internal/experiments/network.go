package experiments

import (
	"fmt"
	"time"

	"privmem/internal/timeseries"

	"privmem/internal/attack/fingerprint"
	"privmem/internal/attack/niom"
	"privmem/internal/defense/gateway"
	"privmem/internal/home"
	"privmem/internal/nettrace"
	"privmem/internal/par"
)

// networkWorkload bundles the memoized §IV world; consumers read only.
type networkWorkload struct {
	lab, victim *nettrace.Capture
	tr          *home.Trace
}

// networkWorld builds the shared §IV workload: a lab capture for attacker
// training, and a victim ~40-device LAN coupled to a real home's activity.
// The world is memoized on (seed, quick). Each experiment fetches it once
// and hands it to the worlds derived from it, and t8, t9 and ar1 derive
// different seeds under RunAll, so the memo pays off across repeated runs
// (serving-tier cache misses, benchmark iterations), not within one suite
// pass.
func networkWorld(opts Options) (lab, victim *nettrace.Capture, tr *home.Trace, err error) {
	w, err := memoWorld(opts.CacheKey("network"), func() (*networkWorkload, error) {
		l, v, t, err := networkWorldUncached(opts)
		if err != nil {
			return nil, err
		}
		return &networkWorkload{lab: l, victim: v, tr: t}, nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return w.lab, w.victim, w.tr, nil
}

func networkWorldUncached(opts Options) (lab, victim *nettrace.Capture, tr *home.Trace, err error) {
	seed := opts.seed()
	days := 7
	if opts.Quick {
		days = 3
	}
	// The lab capture is independent of the home trace, so it builds
	// concurrently with the home → victim chain. Each simulation owns its
	// seeded generator, so the split cannot perturb any random stream — the
	// three captures are bit-identical to the sequential build (pinned by
	// suite.RunAllDeterministic and the golden figures).
	err = par.Do(func() (err error) {
		hcfg := home.DefaultConfig(seed + 21)
		hcfg.Days = days
		if tr, err = home.Simulate(hcfg); err != nil {
			return err
		}
		vcfg := nettrace.DefaultConfig(seed + 2)
		vcfg.Days = days
		vcfg.Activity = tr.Active
		victim, err = nettrace.Simulate(vcfg)
		return err
	}, func() (err error) {
		lab, err = nettrace.SimulateLab(seed + 1)
		return err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return lab, victim, tr, nil
}

// gatewayDetectWorld runs t9's compromise-detection leg against the victim
// world: it simulates a compromised capture from seed, scans it with
// profiles learned from the clean victim capture, and returns each
// compromised device's first-alert latency.
func gatewayDetectWorld(seed int64, victim *nettrace.Capture, tr *home.Trace) (map[string]time.Duration, error) {
	atkCfg := nettrace.DefaultConfig(seed + 4)
	atkCfg.Days = 3
	atkCfg.Activity = tr.Active
	at := atkCfg.Start.Add(30 * time.Hour)
	atkCfg.Compromises = []nettrace.Compromise{
		{Device: "camera-02", At: at, Kind: nettrace.CompromiseExfil},
		{Device: "smart-plug-03", At: at, Kind: nettrace.CompromiseScan},
		{Device: "bulb-05", At: at, Kind: nettrace.CompromiseBot},
	}
	// Profiles learned from the clean victim capture and the compromised
	// capture are independent until the scan.
	var mon *gateway.Monitor
	var compromised *nettrace.Capture
	err := par.Do(func() (err error) {
		mon, err = gateway.LearnProfiles(victim, gateway.DefaultMonitorConfig())
		return err
	}, func() (err error) {
		compromised, err = nettrace.Simulate(atkCfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	alerts, err := mon.Scan(compromised)
	if err != nil {
		return nil, err
	}
	latency := map[string]time.Duration{}
	for _, a := range alerts {
		if _, ok := latency[a.Device]; !ok && !a.At.Before(at) {
			latency[a.Device] = a.At.Sub(at)
		}
	}
	return latency, nil
}

// shapedWorld is one shaping of the victim capture with its cost report.
// The shaped capture is read-only downstream (Identify and InferOccupancy
// only extract features).
type shapedWorld struct {
	cap    *nettrace.Capture
	report *gateway.ShapeReport
}

// gatewayShapeWorld shapes the victim capture per device or uniformly.
func gatewayShapeWorld(victim *nettrace.Capture, uniform bool) (*shapedWorld, error) {
	cfg := gateway.DefaultShapeConfig()
	cfg.Uniform = uniform
	sc, report, err := gateway.Shape(victim, cfg)
	if err != nil {
		return nil, err
	}
	return &shapedWorld{cap: sc, report: report}, nil
}

// TableFingerprint reproduces the §IV passive-monitoring threat: a
// metadata-only observer identifies the devices on a ~40-device LAN and
// infers occupancy from their traffic.
func TableFingerprint(opts Options) (*Report, error) {
	lab, victim, tr, err := networkWorld(opts)
	if err != nil {
		return nil, fmt.Errorf("table fingerprint: %w", err)
	}
	adv, err := fingerprint.NewAdversary(lab, time.Hour)
	if err != nil {
		return nil, fmt.Errorf("table fingerprint: %w", err)
	}
	// Both attacks only read the victim capture and the trained models.
	var id, idBayes *fingerprint.Identification
	var occ *timeseries.Series
	err = par.Do(func() (err error) {
		id, idBayes, err = adv.Identify(victim)
		return err
	}, func() (err error) {
		occ, err = fingerprint.InferOccupancy(victim, fingerprint.DefaultOccupancyConfig())
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("table fingerprint: %w", err)
	}
	ev, err := niom.EvaluateDaytime(tr.Occupancy, occ, 8, 23)
	if err != nil {
		return nil, fmt.Errorf("table fingerprint: %w", err)
	}

	rep := &Report{
		ID:      "t8",
		Title:   fmt.Sprintf("traffic fingerprinting of a %d-device LAN (encrypted-flow metadata only)", len(victim.Devices)),
		Headers: []string{"device class", "recall"},
		Metrics: map[string]float64{
			"device_id_accuracy":       id.Accuracy,
			"device_id_accuracy_bayes": idBayes.Accuracy,
			"occupancy_mcc":            ev.MCC,
			"occupancy_accuracy":       ev.Accuracy,
			"devices_classified":       float64(len(id.Predicted)),
		},
		Notes: []string{
			"occupancy from traffic parallels NIOM on energy: activity-linked devices leak presence",
		},
	}
	for _, class := range nettrace.Classes() {
		if recall, ok := id.PerClass[class]; ok {
			rep.Rows = append(rep.Rows, []string{class.String(), f(recall)})
		}
	}
	rep.Rows = append(rep.Rows,
		[]string{"OVERALL (nearest centroid)", f(id.Accuracy)},
		[]string{"OVERALL (naive bayes)", f(idBayes.Accuracy)},
	)
	return rep, nil
}

// TableGateway reproduces the §IV smart-gateway vision: compromise
// detection latency per behaviour, and the shaping defense's
// privacy/overhead tradeoff against the fingerprinting attack.
func TableGateway(opts Options) (*Report, error) {
	lab, victim, tr, err := networkWorld(opts)
	if err != nil {
		return nil, fmt.Errorf("table gateway: %w", err)
	}

	// Every world below reads only the memoized network world, so the
	// worlds build concurrently, then the attacks on the unshaped and the
	// two shaped captures run concurrently. Results land in fixed slots and
	// the rows are assembled in a fixed order.
	var (
		latency  map[string]time.Duration
		clf      *fingerprint.Classifier
		occPlain *timeseries.Series
	)
	modes := []struct {
		label, key string
		uniform    bool
	}{{"shaped (per-device)", "per_device", false}, {"shaped (uniform)", "uniform", true}}
	sws := make([]*shapedWorld, len(modes))
	err = par.Do(func() (err error) {
		latency, err = gatewayDetectWorld(opts.seed(), victim, tr)
		return err
	}, func() (err error) {
		clf, err = fingerprint.Train(lab, time.Hour)
		return err
	}, func() (err error) {
		sws[0], err = gatewayShapeWorld(victim, modes[0].uniform)
		return err
	}, func() (err error) {
		sws[1], err = gatewayShapeWorld(victim, modes[1].uniform)
		return err
	}, func() (err error) {
		occPlain, err = fingerprint.InferOccupancy(victim, fingerprint.DefaultOccupancyConfig())
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("table gateway: %w", err)
	}
	evPlain, err := niom.EvaluateDaytime(tr.Occupancy, occPlain, 8, 23)
	if err != nil {
		return nil, fmt.Errorf("table gateway: %w", err)
	}

	type shaped struct {
		id       float64
		occMCC   float64
		overhead float64
	}
	var plainID *fingerprint.Identification
	shapes := make([]shaped, len(modes))
	shapeRow := func(i int) error {
		sw := sws[i]
		sid, err := fingerprint.Identify(clf, sw.cap)
		if err != nil {
			return err
		}
		occ, err := fingerprint.InferOccupancy(sw.cap, fingerprint.DefaultOccupancyConfig())
		if err != nil {
			return err
		}
		ev, err := niom.EvaluateDaytime(tr.Occupancy, occ, 8, 23)
		if err != nil {
			return err
		}
		shapes[i] = shaped{sid.Accuracy, ev.MCC, sw.report.PaddingOverhead}
		return nil
	}
	err = par.Do(func() (err error) {
		plainID, err = fingerprint.Identify(clf, victim)
		return err
	}, func() error {
		return shapeRow(0)
	}, func() error {
		return shapeRow(1)
	})
	if err != nil {
		return nil, fmt.Errorf("table gateway: %w", err)
	}

	rep := &Report{
		ID:      "t9",
		Title:   "smart gateway: compromise quarantine and shaping defense",
		Headers: []string{"measurement", "value"},
		Rows: [][]string{
			{"exfiltration detection latency", fmtLatency(latency["camera-02"])},
			{"scan detection latency", fmtLatency(latency["smart-plug-03"])},
			{"ddos-bot detection latency", fmtLatency(latency["bulb-05"])},
			{"device-ID accuracy, unshaped", f(plainID.Accuracy)},
			{"occupancy MCC, unshaped", f(evPlain.MCC)},
		},
		Metrics: map[string]float64{
			"device_id_unshaped": plainID.Accuracy,
			"occ_mcc_unshaped":   evPlain.MCC,
			"detected_count":     float64(len(latency)),
		},
		Notes: []string{
			"quarantine follows the principle of least privilege the paper argues for",
		},
	}
	for i, s := range shapes {
		label, key := modes[i].label, modes[i].key
		rep.Rows = append(rep.Rows,
			[]string{"device-ID accuracy, " + label, f(s.id)},
			[]string{"occupancy MCC, " + label, f(s.occMCC)},
			[]string{"padding overhead, " + label, fmt.Sprintf("%.2fx", s.overhead)},
		)
		rep.Metrics["device_id_"+key] = s.id
		rep.Metrics["occ_mcc_"+key] = s.occMCC
		rep.Metrics["overhead_"+key] = s.overhead
	}
	return rep, nil
}

// fingerprintOccupancy runs the traffic occupancy inference with defaults.
func fingerprintOccupancy(cap *nettrace.Capture) (*timeseries.Series, error) {
	return fingerprint.InferOccupancy(cap, fingerprint.DefaultOccupancyConfig())
}

func fmtLatency(d time.Duration) string {
	if d == 0 {
		return "not detected"
	}
	return d.String()
}
