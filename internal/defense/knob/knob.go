// Package knob implements the user-controllable privacy knob of §III-E: a
// single dial lambda in [0, 1] that trades privacy against analytics
// utility and cost. The paper's "holy grail" is letting users choose their
// own point on this tradeoff rather than accepting a defense's fixed one.
//
// The knob drives the CHPr water-heater mask: lambda is the fraction of
// quiet periods that are masked. Each setting is evaluated on three axes:
// privacy (the NIOM attacker's residual MCC), utility (how much the masking
// distorts the hourly load shape that grid analytics legitimately need),
// and cost (extra heater energy versus a conventional thermostat).
package knob

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"privmem/internal/attack/niom"
	"privmem/internal/defense/chpr"
	"privmem/internal/home"
	"privmem/internal/metrics"
	"privmem/internal/par"
	"privmem/internal/timeseries"
)

// ErrBadInput indicates invalid frontier parameters.
var ErrBadInput = errors.New("knob: invalid input")

// Point is one evaluated knob setting.
type Point struct {
	// Lambda is the knob position in [0, 1].
	Lambda float64
	// AttackMCC is the NIOM attacker's MCC at this setting (privacy is
	// better when this is closer to zero).
	AttackMCC float64
	// PrivacyGain is 1 - AttackMCC/BaselineMCC, clamped to [0, 1].
	PrivacyGain float64
	// UtilityErr is the mean absolute relative error of the defended
	// trace's hourly energy profile versus the undefended one: the
	// distortion grid-scale analytics must absorb.
	UtilityErr float64
	// ExtraEnergyWh is the heater energy beyond the conventional baseline.
	ExtraEnergyWh float64
	// ComfortViolations counts cold-water events (should stay zero).
	ComfortViolations int
}

// Frontier evaluates the privacy/utility/cost tradeoff over the given knob
// settings for one simulated home. Lambda 0 is always included as the
// undefended reference.
func Frontier(cfg home.Config, lambdas []float64, seed int64) ([]Point, error) {
	if len(lambdas) == 0 {
		return nil, fmt.Errorf("%w: no lambda settings", ErrBadInput)
	}
	for _, l := range lambdas {
		if l < 0 || l > 1 {
			return nil, fmt.Errorf("%w: lambda %v", ErrBadInput, l)
		}
	}
	cfg.IncludeWaterHeater = false // the heater is simulated by chpr below
	tr, err := home.Simulate(cfg)
	if err != nil {
		return nil, fmt.Errorf("knob frontier: %w", err)
	}
	tank := chpr.DefaultTank()
	base, err := chpr.Baseline(tank, tr.WaterDraws, tr.Aggregate)
	if err != nil {
		return nil, fmt.Errorf("knob frontier: %w", err)
	}
	undefended, err := tr.Aggregate.Add(base.HeaterPower)
	if err != nil {
		return nil, fmt.Errorf("knob frontier: %w", err)
	}
	baseMCC, err := attackMCC(tr, undefended)
	if err != nil {
		return nil, fmt.Errorf("knob frontier: %w", err)
	}
	baseHourly, err := undefended.Resample(time.Hour)
	if err != nil {
		return nil, fmt.Errorf("knob frontier: %w", err)
	}

	settings := append([]float64{0}, lambdas...)
	sort.Float64s(settings)
	settings = slices.Compact(settings)
	// Each setting masks with its own seeded controller over the shared,
	// read-only trace, so the settings run concurrently into fixed slots.
	out := make([]Point, len(settings))
	err = par.For(len(settings), func(i int) error {
		l := settings[i]
		defended := undefended
		energy := base.EnergyWh
		var violations int
		if l != 0 {
			mcfg := chpr.DefaultConfig(seed)
			mcfg.MaskFraction = l
			masked, err := chpr.Mask(tank, mcfg, tr.Aggregate, tr.WaterDraws)
			if err != nil {
				return fmt.Errorf("knob frontier lambda %v: %w", l, err)
			}
			defended, err = tr.Aggregate.Add(masked.HeaterPower)
			if err != nil {
				return fmt.Errorf("knob frontier: %w", err)
			}
			energy = masked.EnergyWh
			violations = masked.ComfortViolations
		}
		mcc, err := attackMCC(tr, defended)
		if err != nil {
			return fmt.Errorf("knob frontier lambda %v: %w", l, err)
		}
		defHourly, err := defended.Resample(time.Hour)
		if err != nil {
			return fmt.Errorf("knob frontier: %w", err)
		}
		uerr, err := metrics.MAPE(baseHourly.Values, defHourly.Values)
		if err != nil {
			return fmt.Errorf("knob frontier: %w", err)
		}
		gain := 0.0
		if baseMCC > 0 {
			gain = 1 - mcc/baseMCC
			if gain < 0 {
				gain = 0
			}
			if gain > 1 {
				gain = 1
			}
		}
		out[i] = Point{
			Lambda:            l,
			AttackMCC:         mcc,
			PrivacyGain:       gain,
			UtilityErr:        uerr,
			ExtraEnergyWh:     energy - base.EnergyWh,
			ComfortViolations: violations,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// attackMCC runs the threshold NIOM attack and returns its MCC.
func attackMCC(tr *home.Trace, trace *timeseries.Series) (float64, error) {
	pred, err := niom.DetectThreshold(trace, niom.DefaultConfig())
	if err != nil {
		return 0, err
	}
	ev, err := niom.Evaluate(tr.Occupancy, pred)
	if err != nil {
		return 0, err
	}
	return ev.MCC, nil
}
