package experiments

import (
	"fmt"

	"privmem/internal/fleet"
	"privmem/internal/seeds"
)

// FleetStreaming (fl1) streams a heterogeneous home population through the
// online attacks and reports each leakage signal's per-capita p50/p95/p99.
// The fleet summary is a pure function of (seed, quick): bit-identical at
// any worker count, which TestPropFleetDeterministic pins.
func FleetStreaming(opts Options) (*Report, error) {
	spec := fleet.DefaultSpec()
	spec.Seed = seeds.SubSeed(opts.seed(), "fleet")
	spec.Homes, spec.Days = 2000, 3
	if opts.Quick {
		spec.Homes, spec.Days = 200, 2
	}
	res, err := fleet.Run(spec)
	if err != nil {
		return nil, fmt.Errorf("fl1: %w", err)
	}

	rep := &Report{
		ID:      "fl1",
		Title:   "Fleet streaming: per-capita online leakage distribution",
		Headers: []string{"signal", "p50", "p95", "p99"},
		Metrics: map[string]float64{
			"homes":            float64(res.Homes),
			"windows_per_home": float64(res.WindowsPerHome),
			"niom_acc_p50":     res.NIOMAccuracy.P50,
			"niom_acc_p99":     res.NIOMAccuracy.P99,
			"net_acc_p50":      res.NetAccuracy.P50,
			"fhmm_acc_p50":     res.FHMMAccuracy.P50,
			"max_z_p50":        res.MaxZ.P50,
			"max_z_p99":        res.MaxZ.P99,
		},
		Notes: []string{
			fmt.Sprintf("%d homes x %d days, %d variants/archetype, window %s",
				res.Homes, res.Days, res.Variants, fleet.Window),
			"accuracies are per-home fractions vs ground-truth household activity",
			"summary is bit-identical at any worker count (invariant suite law)",
		},
	}
	for _, row := range []struct {
		name string
		q    fleet.Quantiles
	}{
		{"niom accuracy", res.NIOMAccuracy},
		{"net accuracy", res.NetAccuracy},
		{"fhmm accuracy", res.FHMMAccuracy},
		{"max z-score", res.MaxZ},
	} {
		rep.Rows = append(rep.Rows, []string{
			row.name,
			fmt.Sprintf("%.4f", row.q.P50),
			fmt.Sprintf("%.4f", row.q.P95),
			fmt.Sprintf("%.4f", row.q.P99),
		})
	}
	for _, m := range res.Mix {
		rep.Rows = append(rep.Rows, []string{
			"homes:" + m.Name, fmt.Sprintf("%d", m.Homes), "", "",
		})
	}
	return rep, nil
}
