package chpr

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"privmem/internal/home"
	"privmem/internal/timeseries"
)

// Config parameterizes the CHPr masking controller.
type Config struct {
	// Seed drives the burst randomization.
	Seed int64
	// BurstW is the modulated element power used for masking bursts. It
	// must be large enough to register as interactive activity to a NIOM
	// attacker (default 1200 W).
	BurstW float64
	// BurstOn and BurstOff bound the randomized burst durations
	// (defaults 4 and 9 minutes).
	BurstOn, BurstOff time.Duration
	// QuietMeanW is the rest-of-home window mean below which the home looks
	// quiet enough to need masking (default 450 W).
	QuietMeanW float64
	// QuietEdgeW is the rest-of-home switching magnitude that already
	// signals activity, making masking unnecessary (default 700 W).
	QuietEdgeW float64
	// Window is the controller's observation window (default 15 minutes).
	Window time.Duration
	// TempMarginC keeps that much headroom below Tank.MaxC for masking heat
	// (default 2).
	TempMarginC float64
	// MaskFraction is the user-controllable privacy knob of §III-E: the
	// fraction of quiet windows that are masked, in (0, 1]. 1 (also the
	// zero-value default) masks every quiet window. For a fully unmasked
	// heater use Baseline instead.
	MaskFraction float64
}

// DefaultConfig returns the controller configuration used in the
// experiments.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:         seed,
		BurstW:       1200,
		BurstOn:      4 * time.Minute,
		BurstOff:     9 * time.Minute,
		QuietMeanW:   450,
		QuietEdgeW:   700,
		Window:       15 * time.Minute,
		TempMarginC:  2,
		MaskFraction: 1,
	}
}

func (c *Config) withDefaults() Config {
	out := *c
	d := DefaultConfig(c.Seed)
	if out.BurstW == 0 {
		out.BurstW = d.BurstW
	}
	if out.BurstOn == 0 {
		out.BurstOn = d.BurstOn
	}
	if out.BurstOff == 0 {
		out.BurstOff = d.BurstOff
	}
	if out.QuietMeanW == 0 {
		out.QuietMeanW = d.QuietMeanW
	}
	if out.QuietEdgeW == 0 {
		out.QuietEdgeW = d.QuietEdgeW
	}
	if out.Window == 0 {
		out.Window = d.Window
	}
	if out.TempMarginC == 0 {
		out.TempMarginC = d.TempMarginC
	}
	if out.MaskFraction == 0 {
		out.MaskFraction = d.MaskFraction
	}
	return out
}

func (c *Config) validate() error {
	switch {
	case c.BurstW <= 0:
		return fmt.Errorf("%w: burst power %v W", ErrBadConfig, c.BurstW)
	case c.BurstOn <= 0 || c.BurstOff <= 0:
		return fmt.Errorf("%w: burst durations %v/%v", ErrBadConfig, c.BurstOn, c.BurstOff)
	case c.QuietMeanW < 0 || c.QuietEdgeW <= 0:
		return fmt.Errorf("%w: quiet thresholds", ErrBadConfig)
	case c.Window <= 0:
		return fmt.Errorf("%w: window %v", ErrBadConfig, c.Window)
	case c.MaskFraction < 0 || c.MaskFraction > 1:
		return fmt.Errorf("%w: mask fraction %v", ErrBadConfig, c.MaskFraction)
	}
	return nil
}

// Mask runs the CHPr controller over the home's rest-of-home load (every
// appliance except the water heater) and the hot-water draw schedule. The
// controller is causal: each step it sees only past rest-load samples and
// the tank state. It returns the heater's power trace; the defended meter
// trace is restLoad + HeaterPower.
func Mask(tank Tank, cfg Config, restLoad *timeseries.Series, draws []home.WaterDraw) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := tank.validate(); err != nil {
		return nil, fmt.Errorf("chpr mask: %w", err)
	}
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("chpr mask: %w", err)
	}
	if cfg.BurstW > tank.ElementW {
		return nil, fmt.Errorf("%w: burst %v W exceeds element %v W", ErrBadConfig, cfg.BurstW, tank.ElementW)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &Result{
		HeaterPower: timeseries.MustNew(restLoad.Start, restLoad.Step, restLoad.Len()),
		TankTempC:   timeseries.MustNew(restLoad.Start, restLoad.Step, restLoad.Len()),
	}
	st := tankState{tank: tank, tempC: tank.SetC, step: restLoad.Step}
	byStep := drawsByStep(draws, restLoad)
	winSamples := int(cfg.Window / restLoad.Step)
	if winSamples < 1 {
		winSamples = 1
	}
	// The privacy knob: pre-select which windows may be masked.
	nWins := restLoad.Len()/winSamples + 1
	maskable := make([]bool, nWins)
	for i := range maskable {
		maskable[i] = rng.Float64() < cfg.MaskFraction
	}

	jitter := func(d time.Duration) time.Duration {
		f := 0.6 + 0.8*rng.Float64()
		return time.Duration(float64(d) * f)
	}

	var (
		emergency  bool
		burstOn    bool
		burstUntil int
	)
	for i := 0; i < restLoad.Len(); i++ {
		if liters, ok := byStep[i]; ok {
			if st.tempC < tank.ComfortC {
				res.ComfortViolations++
			}
			st.applyDraw(liters)
		}

		// Hot-water guarantee overrides privacy: full power below MinC
		// until the set point is restored. (The full-power burst itself
		// reads as activity, so it does not betray absence.)
		if st.tempC < tank.MinC {
			emergency = true
		}
		if st.tempC >= tank.SetC {
			emergency = false
		}

		var p float64
		switch {
		case emergency:
			p = tank.ElementW
		case st.tempC >= tank.MaxC-cfg.TempMarginC:
			// No thermal headroom: masking must pause.
			p = 0
			burstOn = false
			burstUntil = i
		case !maskable[i/winSamples] || restLooksActive(restLoad, i, winSamples, cfg):
			// The knob left this window unmasked, or the home is visibly
			// active; either way save the thermal budget. The window scan
			// runs only for maskable windows.
			p = 0
			burstOn = false
			burstUntil = i
		default:
			// Quiet period: synthesize bursty activity-like load.
			if i >= burstUntil {
				burstOn = !burstOn
				if burstOn {
					burstUntil = i + int(jitter(cfg.BurstOn)/restLoad.Step)
				} else {
					burstUntil = i + int(jitter(cfg.BurstOff)/restLoad.Step)
				}
				if burstUntil <= i {
					burstUntil = i + 1
				}
			}
			if burstOn {
				p = cfg.BurstW
			}
		}
		st.advance(p)
		res.HeaterPower.Values[i] = p
		res.TankTempC.Values[i] = st.tempC
	}
	res.EnergyWh = res.HeaterPower.Energy()
	return res, nil
}

// restLooksActive reports whether the trailing window of rest-of-home load
// already shows occupant activity (mean above the quiet level or a large
// switching event).
func restLooksActive(rest *timeseries.Series, i, winSamples int, cfg Config) bool {
	lo := i - winSamples
	if lo < 0 {
		lo = 0
	}
	if lo == i {
		return false
	}
	var sum, maxStep, prev float64
	for j := lo; j < i; j++ {
		v := rest.Values[j]
		sum += v
		if j > lo {
			maxStep = max(maxStep, math.Abs(v-prev))
		}
		prev = v
	}
	mean := sum / float64(i-lo)
	return mean > cfg.QuietMeanW || maxStep >= cfg.QuietEdgeW
}
