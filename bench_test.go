package privmem

// One benchmark per reproduced figure and table (DESIGN.md §3). Each bench
// regenerates its artifact at reduced ("quick") scale and reports the
// headline metrics alongside timing, so `go test -bench . -benchmem` both
// measures the harness and re-checks every result's shape. Run cmd/figures
// for the full-scale artifacts.

import (
	"context"
	"runtime"
	"testing"

	"privmem/internal/experiments"
)

// benchExperiment runs one experiment per iteration and reports the chosen
// metrics.
func benchExperiment(b *testing.B, id string, metricNames ...string) {
	b.Helper()
	b.ReportAllocs()
	var last *experiments.Report
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(id, experiments.Options{Quick: true, Seed: 42})
		if err != nil {
			b.Fatalf("experiment %s: %v", id, err)
		}
		last = rep
	}
	for _, name := range metricNames {
		v, err := last.Metric(name)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(v, name)
	}
}

// BenchmarkFigure1HomeTraces regenerates Figure 1: the power/occupancy
// overlay for two homes.
func BenchmarkFigure1HomeTraces(b *testing.B) {
	benchExperiment(b, "f1", "corr_power_occupancy_A", "corr_power_occupancy_B")
}

// BenchmarkFigure2Disaggregation regenerates Figure 2: PowerPlay vs FHMM
// disaggregation error. powerplay_wins must be 5 (PowerPlay beats FHMM for
// every tracked device).
func BenchmarkFigure2Disaggregation(b *testing.B) {
	benchExperiment(b, "f2", "powerplay_wins", "powerplay_fridge", "fhmm_fridge")
}

// BenchmarkFigure5Localization regenerates Figure 5: SunSpot vs Weatherman
// localization error (km).
func BenchmarkFigure5Localization(b *testing.B) {
	benchExperiment(b, "f5", "sunspot_median_km", "weatherman_median_km", "weatherman_max_km")
}

// BenchmarkFigure6CHPr regenerates Figure 6: NIOM MCC before and after the
// CHPr water-heater mask.
func BenchmarkFigure6CHPr(b *testing.B) {
	benchExperiment(b, "f6", "mcc_original", "mcc_chpr")
}

// BenchmarkTableNIOMAccuracy regenerates the in-text 70-90% occupancy
// accuracy claim across homes.
func BenchmarkTableNIOMAccuracy(b *testing.B) {
	benchExperiment(b, "t1", "threshold_acc_mean", "threshold_acc_min", "threshold_acc_max")
}

// BenchmarkTableBehaviorInference regenerates the §II-A routine-profiling
// inferences.
func BenchmarkTableBehaviorInference(b *testing.B) {
	benchExperiment(b, "t2", "dryer_runs_inferred", "dryer_runs_true")
}

// BenchmarkTableSunDance regenerates the §II-B net-meter disaggregation
// result.
func BenchmarkTableSunDance(b *testing.B) {
	benchExperiment(b, "t3", "gen_error_mean", "cons_error_mean")
}

// BenchmarkTableBatteryDefense regenerates the §III-B battery-defense
// comparison.
func BenchmarkTableBatteryDefense(b *testing.B) {
	benchExperiment(b, "t4", "mcc_undefended", "mcc_nill_large")
}

// BenchmarkTableDifferentialPrivacy regenerates the §III-A epsilon sweep.
func BenchmarkTableDifferentialPrivacy(b *testing.B) {
	benchExperiment(b, "t5", "mcc_undefended", "mcc_eps_1", "agg_err_eps_1")
}

// BenchmarkTableZKBilling regenerates the §III-C committed-meter billing
// flow — the per-iteration time is dominated by committing every hourly
// reading, so ns/op is the commit+prove+verify cost. verify_ok and
// tampering_caught must both be 1.
func BenchmarkTableZKBilling(b *testing.B) {
	benchExperiment(b, "t6", "verify_ok", "tampering_caught", "commitments")
}

// BenchmarkTableKnobFrontier regenerates the §III-E privacy-knob frontier.
func BenchmarkTableKnobFrontier(b *testing.B) {
	benchExperiment(b, "t7", "mcc_lambda_0", "mcc_lambda_1", "privacy_gain_lambda_1")
}

// BenchmarkTableFingerprint regenerates the §IV traffic-fingerprinting
// attack.
func BenchmarkTableFingerprint(b *testing.B) {
	benchExperiment(b, "t8", "device_id_accuracy", "occupancy_mcc")
}

// BenchmarkTableGateway regenerates the §IV smart-gateway defense
// (quarantine + shaping).
func BenchmarkTableGateway(b *testing.B) {
	benchExperiment(b, "t9", "detected_count", "device_id_per_device", "overhead_per_device")
}

// BenchmarkTableLocalIoT regenerates the §III-D local-analytics comparison.
func BenchmarkTableLocalIoT(b *testing.B) {
	benchExperiment(b, "t10", "cloud_mcc_cloud_pipeline", "cloud_mcc_local_pipeline")
}

// BenchmarkTableFitnessLocation regenerates the §II-C fitness-tracker
// location/health attacks and the privacy-zone sweep.
func BenchmarkTableFitnessLocation(b *testing.B) {
	benchExperiment(b, "t11", "median_km_zone_0", "boundary_km_zone_1")
}

// BenchmarkTableStravaHeatmap regenerates the Strava heatmap incident [6].
func BenchmarkTableStravaHeatmap(b *testing.B) {
	benchExperiment(b, "t12", "revealed_km_k_0")
}

// BenchmarkArmsRace regenerates the ar1 adaptive-adversary matrix: four
// defense generations × four attacker generations, dominated by the
// sixteen identification passes over the defended victim captures.
func BenchmarkArmsRace(b *testing.B) {
	benchExperiment(b, "ar1", "adv_gateway", "adv_stp", "acc_d2_a2", "occ_mcc_d3")
}

// BenchmarkRunAll regenerates the presentation suite at quick scale through
// the concurrent runner, comparing the sequential baseline against a worker
// per CPU. Reports are identical in both configurations; only wall-clock
// differs. Each sub-benchmark does one untimed warmup pass so both
// configurations measure the same steady state (warm world memo), and the
// parallel run reports its speedup over the serial baseline as a custom
// metric.
//
// The sub-benchmarks carry fixed names ("serial", "parallel") with the
// worker count as a reported metric: the old workers=%d naming collided on
// single-CPU hosts (both subs became workers=1, deduped by the testing
// package to workers=1#01), so a benchmark's name changed with the host.
func BenchmarkRunAll(b *testing.B) {
	ids := experiments.IDs()
	opts := experiments.Options{Quick: true, Seed: 42}
	runSuite := func(b *testing.B, workers int) {
		b.Helper()
		reports, err := experiments.RunAll(context.Background(), ids, opts,
			experiments.RunAllOptions{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if len(reports) != len(ids) {
			b.Fatalf("got %d reports", len(reports))
		}
	}
	var serialNsPerOp float64
	configs := []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", runtime.NumCPU()},
	}
	for ci, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			runSuite(b, cfg.workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runSuite(b, cfg.workers)
			}
			b.ReportMetric(float64(cfg.workers), "workers")
			nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if ci == 0 {
				serialNsPerOp = nsPerOp
			} else if nsPerOp > 0 {
				b.ReportMetric(serialNsPerOp/nsPerOp, "speedup_vs_serial")
			}
		})
	}
}
