package meter_test

import (
	"math/rand"
	"testing"
	"time"

	"privmem/internal/invariant"
	"privmem/internal/meter"
	"privmem/internal/timeseries"
)

// billingTolWh is the drift-compensating accumulator's guarantee (0.5 Wh)
// plus slack for float summation over long traces.
const billingTolWh = 0.5 + 1e-3

// TestPropBillingConservesEnergy drives the billing invariant over random
// power series, including net-metered (negative) traces where solar export
// makes intervals alternate sign.
func TestPropBillingConservesEnergy(t *testing.T) {
	invariant.Check(t, 45, 80, func(rng *rand.Rand, i int) error {
		spec := invariant.SeriesSpec{}
		if i%3 == 0 {
			// Net-metered: exports drive interval energy negative.
			spec.MinV, spec.MaxV = -4000, 4000
		}
		s := invariant.RandomSeries(rng, spec)
		return invariant.BillingConservesEnergy(s, billingTolWh)
	})
}

// TestBillingLongTraceNoDrift pins the headline property on a worst-case
// trace for naive per-interval rounding: a year of hourly readings each
// carrying exactly 0.5 Wh of rounding residue. Independent rounding would
// drift by ~4380 Wh; the accumulator must stay within 0.5 Wh.
func TestBillingLongTraceNoDrift(t *testing.T) {
	n := 365 * 24
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 100.5 // 100.5 Wh per hourly interval
	}
	s := &timeseries.Series{Start: time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC), Step: time.Hour, Values: vals}
	if err := invariant.BillingConservesEnergy(s, billingTolWh); err != nil {
		t.Fatal(err)
	}
	total := meter.TotalWattHours(meter.BillingReadings(s))
	if diff := float64(total) - s.Energy(); diff > 0.5 || diff < -0.5 {
		t.Fatalf("year-long billed total %d Wh drifts %.3f Wh from energy %.1f Wh", total, diff, s.Energy())
	}
}
