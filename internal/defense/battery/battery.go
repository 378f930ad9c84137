// Package battery implements battery-based load-hiding defenses against
// NILM (§III-B of the paper): NILL (non-intrusive load leveling,
// McLaughlin et al. [26]), which holds the metered load at a steady target,
// and load stepping (Yang et al. [27]), which quantizes the metered load to
// coarse steps. Both strip the switching edges NILM feeds on, at the cost
// of installing and cycling a battery — the cost/privacy tradeoff the paper
// contrasts with CHPr's "free" water-heater masking.
package battery

import (
	"errors"
	"fmt"
	"math"

	"privmem/internal/timeseries"
)

// ErrBadConfig indicates invalid battery or policy parameters.
var ErrBadConfig = errors.New("battery: invalid config")

// Battery models a stationary home battery.
type Battery struct {
	// CapacityWh is usable storage.
	CapacityWh float64
	// MaxChargeW and MaxDischargeW bound power in each direction.
	MaxChargeW, MaxDischargeW float64
	// Efficiency is the one-way energy efficiency applied when charging
	// (round-trip efficiency is Efficiency^2). 1 means lossless.
	Efficiency float64
	// InitialSoC is the starting state of charge as a fraction of capacity.
	InitialSoC float64
}

// DefaultBattery returns a Powerwall-class 13.5 kWh / 5 kW home battery:
// whole-home load hiding needs discharge headroom above the largest
// appliance (the dryer), which is the dominant cost the paper attributes to
// battery-based defenses.
func DefaultBattery() Battery {
	return Battery{
		CapacityWh:    13500,
		MaxChargeW:    5000,
		MaxDischargeW: 5000,
		Efficiency:    0.95,
		InitialSoC:    0.5,
	}
}

func (b Battery) validate() error {
	switch {
	case b.CapacityWh <= 0:
		return fmt.Errorf("%w: capacity %v Wh", ErrBadConfig, b.CapacityWh)
	case b.MaxChargeW <= 0 || b.MaxDischargeW <= 0:
		return fmt.Errorf("%w: power limits %v/%v W", ErrBadConfig, b.MaxChargeW, b.MaxDischargeW)
	case b.Efficiency <= 0 || b.Efficiency > 1:
		return fmt.Errorf("%w: efficiency %v", ErrBadConfig, b.Efficiency)
	case b.InitialSoC < 0 || b.InitialSoC > 1:
		return fmt.Errorf("%w: initial SoC %v", ErrBadConfig, b.InitialSoC)
	}
	return nil
}

// Result is a simulated battery-defense run.
type Result struct {
	// Grid is the metered (defended) load in watts.
	Grid *timeseries.Series
	// SoCWh is the battery state of charge over time.
	SoCWh *timeseries.Series
	// ThroughputWh is total energy cycled through the battery (discharge
	// side), a wear proxy.
	ThroughputWh float64
	// SaturatedSteps counts steps where the battery could not hold the
	// policy target (leaking load signal).
	SaturatedSteps int
}

// simState tracks one battery simulation.
type simState struct {
	b     Battery
	socWh float64
}

// apply requests the grid to deviate from the home load by delta watts
// (positive delta charges the battery: grid = load + delta). It returns the
// achievable delta after power and energy constraints.
func (s *simState) apply(delta float64, hours float64) float64 {
	if delta > 0 { // charging
		delta = min(delta, s.b.MaxChargeW)
		room := s.b.CapacityWh - s.socWh
		maxByEnergy := room / s.b.Efficiency / hours
		delta = min(delta, maxByEnergy)
		s.socWh += delta * hours * s.b.Efficiency
		return delta
	}
	// discharging
	want := min(-delta, s.b.MaxDischargeW)
	maxByEnergy := s.socWh / hours
	want = min(want, maxByEnergy)
	s.socWh -= want * hours
	return -want
}

// NILL runs non-intrusive load leveling [26]: the controller holds the
// metered load at a steady target (an exponentially-tracked mean of demand),
// charging when the home underdraws and discharging when it overdraws. When
// the battery saturates the target adapts, briefly leaking signal — the
// exact failure mode the original paper analyzes.
func NILL(load *timeseries.Series, b Battery) (*Result, error) {
	if err := b.validate(); err != nil {
		return nil, fmt.Errorf("nill: %w", err)
	}
	if load.Len() == 0 {
		return nil, fmt.Errorf("nill: %w: empty load", ErrBadConfig)
	}
	res := &Result{
		Grid:  timeseries.MustNew(load.Start, load.Step, load.Len()),
		SoCWh: timeseries.MustNew(load.Start, load.Step, load.Len()),
	}
	st := simState{b: b, socWh: b.InitialSoC * b.CapacityWh}
	hours := load.Step.Hours()

	// Target: the causal trailing-24h mean demand. A level equal to average
	// demand is the only energy-neutral choice; the 24-hour horizon
	// averages out the diurnal cycle instead of following it. A small SoC
	// feedback term steers the level so the battery recovers from sustained
	// imbalance instead of pinning full or empty.
	perDay := int((24 * 60 * 60) / load.Step.Seconds())
	if perDay < 1 {
		perDay = 1
	}
	var trailingSum float64
	for i, demand := range load.Values {
		trailingSum += demand
		n := i + 1
		if i >= perDay {
			trailingSum -= load.Values[i-perDay]
			n = perDay
		}
		target := trailingSum / float64(n)
		// SoC feedback: +/- up to 20% of target as the battery departs from
		// half charge.
		socErr := st.socWh/b.CapacityWh - 0.5
		target *= 1 + 0.4*socErr

		want := target - demand // >0 charge, <0 discharge
		got := st.apply(want, hours)
		grid := demand + got
		if math.Abs(got-want) > 1 {
			res.SaturatedSteps++
		}
		if got < 0 {
			res.ThroughputWh += -got * hours
		}
		res.Grid.Values[i] = max(0, grid)
		res.SoCWh.Values[i] = st.socWh
	}
	return res, nil
}

// Stepping runs the lazy load-stepping defense [27]: the metered load is
// held at integer multiples of stepW. While the battery has room the level
// rounds demand up (charging the surplus); once the battery nears full the
// controller flips to rounding down (discharging the deficit) until it
// nears empty again. Step transitions reveal only coarse quanta rather than
// appliance signatures.
func Stepping(load *timeseries.Series, b Battery, stepW float64) (*Result, error) {
	if err := b.validate(); err != nil {
		return nil, fmt.Errorf("stepping: %w", err)
	}
	if stepW <= 0 {
		return nil, fmt.Errorf("stepping: %w: step %v W", ErrBadConfig, stepW)
	}
	if load.Len() == 0 {
		return nil, fmt.Errorf("stepping: %w: empty load", ErrBadConfig)
	}
	res := &Result{
		Grid:  timeseries.MustNew(load.Start, load.Step, load.Len()),
		SoCWh: timeseries.MustNew(load.Start, load.Step, load.Len()),
	}
	st := simState{b: b, socWh: b.InitialSoC * b.CapacityWh}
	hours := load.Step.Hours()
	const socHigh, socLow = 0.8, 0.2
	roundingUp := true

	for i, demand := range load.Values {
		switch {
		case st.socWh >= socHigh*b.CapacityWh:
			roundingUp = false
		case st.socWh <= socLow*b.CapacityWh:
			roundingUp = true
		}
		var level float64
		if roundingUp {
			level = math.Ceil(demand/stepW) * stepW
		} else {
			level = math.Floor(demand/stepW) * stepW
		}

		want := level - demand
		got := st.apply(want, hours)
		grid := demand + got
		if math.Abs(got-want) > 1 {
			res.SaturatedSteps++
		}
		if got < 0 {
			res.ThroughputWh += -got * hours
		}
		res.Grid.Values[i] = max(0, grid)
		res.SoCWh.Values[i] = st.socWh
	}
	return res, nil
}
