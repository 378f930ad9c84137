// Package nilm implements Non-Intrusive Load Monitoring: disaggregating a
// home's total power into individual appliances (§II-A of the paper).
//
// Two methods are provided, matching Figure 2's comparison:
//
//   - PowerPlay [2]: a model-driven tracker. It assumes detailed a-priori
//     models of each tracked load (package loads) and maintains a "virtual
//     power meter" per device, driven by switching edges in the aggregate
//     that match a model's signature. Because it reacts only to matching
//     edges, it is robust to unmodeled background loads and meter noise.
//   - FHMM [19]: the conventional learning approach. Per-device hidden
//     Markov models are trained from submetered data and decoded jointly
//     against the aggregate (a factorial HMM). All aggregate variance must
//     be explained by the joint state, so unmodeled loads corrupt the
//     decoding — the effect Figure 2 measures.
package nilm

import (
	"errors"
	"fmt"
	"math"
	"time"

	"privmem/internal/loads"
	"privmem/internal/timeseries"
)

// ErrBadConfig indicates invalid NILM parameters.
var ErrBadConfig = errors.New("nilm: invalid config")

// PowerPlayConfig parameterizes the model-driven tracker.
type PowerPlayConfig struct {
	// Tolerance is the relative mismatch allowed between an observed edge
	// and a model's on-power (default 0.05).
	Tolerance float64
	// MinEdgeW is the smallest edge magnitude considered at all
	// (default 70 W, below the smallest tracked appliance).
	MinEdgeW float64
	// EdgePad is the number of samples used to estimate steady levels
	// around an edge (default 3, which spans ramps smeared by a concurrent
	// switch in an adjacent sample).
	EdgePad int
	// TimingWeight scales the duty-cycle timing penalty used to
	// disambiguate cyclical loads with similar powers (default 0.5).
	TimingWeight float64
	// AbsToleranceW floors the matching tolerance in absolute watts
	// (default 15 W): small loads like a freezer cannot be matched at a
	// purely relative tolerance because concurrent load jitter shifts their
	// edges by tens of watts.
	AbsToleranceW float64
}

// DefaultPowerPlayConfig returns the tracker configuration used in the
// experiments.
func DefaultPowerPlayConfig() PowerPlayConfig {
	return PowerPlayConfig{
		Tolerance:     0.05,
		MinEdgeW:      70,
		EdgePad:       3,
		TimingWeight:  0.5,
		AbsToleranceW: 15,
	}
}

func (c *PowerPlayConfig) withDefaults() PowerPlayConfig {
	out := *c
	d := DefaultPowerPlayConfig()
	if out.Tolerance == 0 {
		out.Tolerance = d.Tolerance
	}
	if out.MinEdgeW == 0 {
		out.MinEdgeW = d.MinEdgeW
	}
	if out.EdgePad == 0 {
		out.EdgePad = d.EdgePad
	}
	if out.TimingWeight == 0 {
		out.TimingWeight = d.TimingWeight
	}
	if out.AbsToleranceW == 0 {
		out.AbsToleranceW = d.AbsToleranceW
	}
	return out
}

// toleranceFor returns the effective relative tolerance for a model,
// applying the absolute floor.
func (c *PowerPlayConfig) toleranceFor(m loads.Model) float64 {
	return max(c.Tolerance, c.AbsToleranceW/m.OnPower)
}

func (c *PowerPlayConfig) validate() error {
	switch {
	case c.Tolerance <= 0 || c.Tolerance >= 1:
		return fmt.Errorf("%w: tolerance %v", ErrBadConfig, c.Tolerance)
	case c.MinEdgeW <= 0:
		return fmt.Errorf("%w: min edge %v W", ErrBadConfig, c.MinEdgeW)
	case c.EdgePad < 1:
		return fmt.Errorf("%w: edge pad %d", ErrBadConfig, c.EdgePad)
	case c.TimingWeight < 0:
		return fmt.Errorf("%w: timing weight %v", ErrBadConfig, c.TimingWeight)
	case c.AbsToleranceW < 0:
		return fmt.Errorf("%w: absolute tolerance %v W", ErrBadConfig, c.AbsToleranceW)
	}
	return nil
}

// trackerState is the virtual power meter of one tracked device.
type trackerState struct {
	model   loads.Model
	on      bool
	onSince int     // sample index of the matched rising edge
	power   float64 // estimated steady power while on
	offAt   int     // sample index of the last matched falling edge
	// expOnSamples is the model's typical on duration in samples, used to
	// truncate a run whose falling edge was missed.
	expOnSamples int
	// maxOnSamples forces the device off if its falling edge was missed.
	maxOnSamples int
}

// PowerPlay runs the model-driven tracker over an aggregate power trace and
// returns one inferred power series per tracked model (keyed by model name).
func PowerPlay(aggregate *timeseries.Series, models []loads.Model, cfg PowerPlayConfig) (map[string]*timeseries.Series, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("powerplay: %w", err)
	}
	if len(models) == 0 {
		return nil, fmt.Errorf("powerplay: %w: no models", ErrBadConfig)
	}
	states := make([]*trackerState, 0, len(models))
	for _, m := range models {
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("powerplay: %w", err)
		}
		maxOn := m.OnDuration
		if m.DurationJitter > 0 {
			maxOn = time.Duration(float64(maxOn) * (1 + m.DurationJitter))
		}
		maxOnSamples := int(float64(maxOn) / float64(aggregate.Step) * 1.5)
		if m.OffDuration > 0 {
			// Duty-cycled loads have tightly bounded on-phases; a long
			// force-off horizon would leave a wedged virtual meter blind to
			// the next real cycle.
			maxOnSamples = int(float64(maxOn)/float64(aggregate.Step)) + 2
		}
		states = append(states, &trackerState{
			model:        m,
			offAt:        -1,
			expOnSamples: int(m.OnDuration / aggregate.Step),
			maxOnSamples: maxOnSamples,
		})
	}

	edges := aggregate.DetectEdges(cfg.MinEdgeW, cfg.EdgePad)
	out := make(map[string]*timeseries.Series, len(models))
	for _, m := range models {
		out[m.Name] = timeseries.MustNew(aggregate.Start, aggregate.Step, aggregate.Len())
	}

	render := func(st *trackerState, from, to int) {
		dev := out[st.model.Name]
		for i := from; i < to && i < dev.Len(); i++ {
			dev.Values[i] = st.power
		}
	}

	ei := 0
	for i := 0; i < aggregate.Len(); i++ {
		for ei < len(edges) && edges[ei].Index == i {
			e := edges[ei]
			ei++
			if e.Delta > 0 {
				if st := bestRisingMatch(states, e.Delta, i, aggregate.Step, cfg); st != nil {
					if st.on {
						// Re-sync of a wedged duty-cycled meter: close the
						// stale cycle at its typical duration first.
						render(st, st.onSince, st.onSince+st.expOnSamples)
					}
					st.on = true
					st.onSince = i
					st.power = e.Delta
				}
			} else if st := bestFallingMatch(states, -e.Delta, cfg); st != nil {
				render(st, st.onSince, i)
				st.on = false
				st.offAt = i
			}
		}
		// Missed-off safety (after edge handling, so a real falling edge at
		// the deadline wins): a device cannot stay on past its model's
		// plausible maximum. When the falling edge was missed, the model's
		// typical duration is the best estimate of when it actually ended.
		for _, st := range states {
			if st.on && st.maxOnSamples > 0 && i-st.onSince >= st.maxOnSamples {
				render(st, st.onSince, st.onSince+st.expOnSamples)
				st.on = false
				st.offAt = st.onSince + st.expOnSamples
			}
		}
	}
	// Close out devices still on at the end of the trace.
	for _, st := range states {
		if st.on {
			render(st, st.onSince, aggregate.Len())
		}
	}
	return out, nil
}

// bestRisingMatch returns the off device whose model best explains a rising
// edge of magnitude delta, or nil when none matches.
func bestRisingMatch(states []*trackerState, delta float64, idx int, step time.Duration, cfg PowerPlayConfig) *trackerState {
	var best *trackerState
	bestScore := math.Inf(1)
	for _, st := range states {
		if !st.model.MatchesDelta(delta, cfg.toleranceFor(st.model)) {
			continue
		}
		resync := false
		if st.on {
			// Re-sync: a duty-cycled device believed on past its typical
			// duration whose rising signature reappears was wedged by a
			// missed falling edge; accept the edge as a new cycle.
			if st.model.OffDuration == 0 || idx-st.onSince <= st.expOnSamples {
				continue
			}
			resync = true
		}
		score := math.Abs(delta-st.model.OnPower) / st.model.OnPower
		if resync {
			score += 0.25 // prefer a genuinely-off device over a re-sync
		}
		// Cyclical loads should reappear roughly one off-phase after their
		// last falling edge; penalize implausible timing.
		if st.model.OffDuration > 0 && !st.on && st.offAt >= 0 {
			expected := float64(st.model.OffDuration / step)
			gap := float64(idx - st.offAt)
			score += cfg.TimingWeight * math.Abs(gap-expected) / expected
		}
		if score < bestScore {
			best, bestScore = st, score
		}
	}
	return best
}

// bestFallingMatch returns the on device whose current estimated power best
// explains a falling edge of magnitude drop, or nil when none matches.
func bestFallingMatch(states []*trackerState, drop float64, cfg PowerPlayConfig) *trackerState {
	var best *trackerState
	bestScore := math.Inf(1)
	for _, st := range states {
		if !st.on {
			continue
		}
		ref := st.power
		if ref <= 0 {
			ref = st.model.OnPower
		}
		rel := math.Abs(drop-ref) / ref
		if rel > cfg.toleranceFor(st.model)*1.5 {
			continue
		}
		if rel < bestScore {
			best, bestScore = st, rel
		}
	}
	return best
}
