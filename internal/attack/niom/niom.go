// Package niom implements Non-Intrusive Occupancy Monitoring: inferring a
// home's binary occupancy from its smart-meter power trace alone, the attack
// of §II-A of the paper ([1], [14]).
//
// Two detectors are provided. DetectThreshold follows Chen et al. [1]: it
// classifies fixed windows as occupied when their mean power rises a margin
// above a quiet baseline learned from the trace itself, or when they contain
// a switching event too large to be a background appliance. DetectHMM
// follows Kleiminger et al. [14]: it treats per-window activity evidence as
// noisy emissions of a sticky two-state occupancy chain and decodes it with
// Viterbi, which recovers the run structure of occupancy.
//
// Both detectors share the paper's core intuition: occupants make usage
// higher and burstier, while background appliances (refrigerator, freezer,
// HRV) cycle regardless of occupancy and must be filtered out.
package niom

import (
	"errors"
	"fmt"
	"time"

	"privmem/internal/hmm"
	"privmem/internal/metrics"
	"privmem/internal/timeseries"
)

// ErrBadConfig indicates invalid detector parameters.
var ErrBadConfig = errors.New("niom: invalid config")

// Config parameterizes the NIOM detectors.
type Config struct {
	// Window is the classification window (default 15 minutes).
	Window time.Duration
	// BaselineQuantile selects the quiet baseline: windows at or below this
	// quantile of mean power are taken as the background envelope
	// (default 0.15).
	BaselineQuantile float64
	// MeanMarginW flags a window occupied when its mean exceeds the
	// baseline mean by this many watts (default 180 W) — large enough that
	// background duty cycles cannot produce it.
	MeanMarginW float64
	// EdgeThresholdW flags a window occupied when it contains a step change
	// of at least this magnitude (default 700 W), the signature of an
	// interactive appliance; background appliances switch far less power.
	EdgeThresholdW float64
	// SmoothWindows applies majority smoothing over this many consecutive
	// window labels (odd; default 5). Occupancy comes in multi-window runs,
	// so smoothing removes isolated background-coincidence false positives
	// and fills brief quiet gaps inside occupied periods.
	SmoothWindows int
}

// DefaultConfig returns the detector configuration used in the experiments.
func DefaultConfig() Config {
	return Config{
		Window:           15 * time.Minute,
		BaselineQuantile: 0.15,
		MeanMarginW:      180,
		EdgeThresholdW:   700,
		SmoothWindows:    5,
	}
}

func (c *Config) withDefaults() Config {
	out := *c
	d := DefaultConfig()
	if out.Window == 0 {
		out.Window = d.Window
	}
	if out.BaselineQuantile == 0 {
		out.BaselineQuantile = d.BaselineQuantile
	}
	if out.MeanMarginW == 0 {
		out.MeanMarginW = d.MeanMarginW
	}
	if out.EdgeThresholdW == 0 {
		out.EdgeThresholdW = d.EdgeThresholdW
	}
	if out.SmoothWindows == 0 {
		out.SmoothWindows = d.SmoothWindows
	}
	return out
}

func (c *Config) validate() error {
	switch {
	case c.Window <= 0:
		return fmt.Errorf("%w: window %v", ErrBadConfig, c.Window)
	case c.BaselineQuantile <= 0 || c.BaselineQuantile >= 1:
		return fmt.Errorf("%w: baseline quantile %v", ErrBadConfig, c.BaselineQuantile)
	case c.MeanMarginW < 0:
		return fmt.Errorf("%w: mean margin %v W", ErrBadConfig, c.MeanMarginW)
	case c.EdgeThresholdW <= 0:
		return fmt.Errorf("%w: edge threshold %v W", ErrBadConfig, c.EdgeThresholdW)
	case c.SmoothWindows < 0 || c.SmoothWindows%2 == 0:
		return fmt.Errorf("%w: smooth windows %d must be odd", ErrBadConfig, c.SmoothWindows)
	}
	return nil
}

// effectiveWindow rounds the configured window up to a positive multiple of
// the trace step, so coarse traces (e.g. hourly releases) are analyzed at
// their own resolution rather than rejected.
func effectiveWindow(window, step time.Duration) time.Duration {
	if step <= 0 {
		return window
	}
	if window < step {
		return step
	}
	if rem := window % step; rem != 0 {
		return window + step - rem
	}
	return window
}

// DetectThreshold runs the threshold detector of [1] on a metered power
// trace and returns a binary occupancy series at the trace's resolution.
func DetectThreshold(power *timeseries.Series, cfg Config) (*timeseries.Series, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("niom threshold: %w", err)
	}
	cfg.Window = effectiveWindow(cfg.Window, power.Step)
	ws, err := power.Windows(cfg.Window)
	if err != nil {
		return nil, fmt.Errorf("niom threshold: %w", err)
	}
	if len(ws) == 0 {
		return nil, fmt.Errorf("niom threshold: %w: trace shorter than one window", ErrBadConfig)
	}

	// The label pipeline (baseline, per-window rules, majority smoothing) is
	// shared with the streaming detector: see thresholdLabels in stream.go.
	labels := thresholdLabels(compactStats(ws), cfg, &Scratch{})
	return expandLabels(power, cfg.Window, labels), nil
}

// occupancyModel returns the fixed sticky two-state occupancy chain of
// DetectHMM [14]: occupied periods emit activity evidence often but not
// always, unoccupied periods rarely.
func occupancyModel() *hmm.Model {
	return &hmm.Model{
		Initial: []float64{0.5, 0.5},
		Trans:   [][]float64{{0.92, 0.08}, {0.08, 0.92}},
		Means:   []float64{0.05, 0.75},
		Stds:    []float64{0.3, 0.45},
	}
}

// DetectHMM runs the HMM detector of [14]: per-window activity evidence is
// decoded through a sticky two-state occupancy chain with Viterbi.
func DetectHMM(power *timeseries.Series, cfg Config) (*timeseries.Series, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("niom hmm: %w", err)
	}
	cfg.Window = effectiveWindow(cfg.Window, power.Step)
	ws, err := power.Windows(cfg.Window)
	if err != nil {
		return nil, fmt.Errorf("niom hmm: %w", err)
	}
	if len(ws) < 8 {
		return nil, fmt.Errorf("niom hmm: %w: only %d windows", ErrBadConfig, len(ws))
	}
	// Per-window activity evidence: the same physical criterion as the
	// threshold detector, expressed as a noisy 0/1 observation (rawLabels is
	// the shared pre-smoothing pipeline stage in stream.go).
	evidence := rawLabels(compactStats(ws), cfg, &Scratch{})
	// A fixed sticky two-state chain decodes occupancy from the evidence:
	// occupied periods emit evidence often but not always (reading, resting)
	// while unoccupied periods emit it rarely (background coincidences).
	// Viterbi then recovers the maximum-likelihood occupancy run structure.
	path, _, err := occupancyModel().Viterbi(evidence)
	if err != nil {
		return nil, fmt.Errorf("niom hmm: %w", err)
	}
	labels := make([]float64, len(ws))
	for i, s := range path {
		if s == 1 {
			labels[i] = 1
		}
	}
	return expandLabels(power, cfg.Window, labels), nil
}

// expandLabels upsamples per-window binary labels back to the power trace's
// resolution, covering only full windows (the trailing partial window, if
// any, takes the last label).
func expandLabels(power *timeseries.Series, window time.Duration, labels []float64) *timeseries.Series {
	out := timeseries.MustNew(power.Start, power.Step, power.Len())
	k := int(window / power.Step)
	for i := range out.Values {
		w := i / k
		if w >= len(labels) {
			w = len(labels) - 1
		}
		out.Values[i] = labels[w]
	}
	return out
}

// Evaluation scores a detector's output against ground truth.
type Evaluation struct {
	// Confusion is the sample-level confusion matrix.
	Confusion metrics.Confusion
	// MCC is the Matthews Correlation Coefficient of the detection, the
	// paper's headline measure (Figure 6).
	MCC float64
	// Accuracy is the fraction of samples classified correctly, the measure
	// behind the paper's "70-90%" claim.
	Accuracy float64
}

// Evaluate aligns a predicted occupancy series with ground truth (which may
// be at a finer step) and scores it over all samples.
func Evaluate(truth, predicted *timeseries.Series) (Evaluation, error) {
	return evaluate(truth, predicted, 0, 24)
}

// EvaluateDaytime scores detection between fromHour (inclusive) and toHour
// (exclusive) local hours only, the protocol of Kleiminger et al. [14] and
// of the paper's Figure 1 (8am-11pm): power-only detectors cannot observe
// sleeping occupants, so the 70-90% accuracy claim applies to waking hours.
func EvaluateDaytime(truth, predicted *timeseries.Series, fromHour, toHour int) (Evaluation, error) {
	if fromHour < 0 || toHour > 24 || fromHour >= toHour {
		return Evaluation{}, fmt.Errorf("niom evaluate: %w: hours [%d, %d)",
			ErrBadConfig, fromHour, toHour)
	}
	return evaluate(truth, predicted, fromHour, toHour)
}

func evaluate(truth, predicted *timeseries.Series, fromHour, toHour int) (Evaluation, error) {
	var ev Evaluation
	t := truth
	if truth.Step != predicted.Step {
		r, err := truth.Resample(predicted.Step)
		if err != nil {
			return ev, fmt.Errorf("niom evaluate: %w", err)
		}
		t = r.Binary(0.5)
	}
	n := min(t.Len(), predicted.Len())
	// Every local hour lies in [0, 24), so a whole-day score reads the
	// series as they are.
	act, pred := t.Values[:n], predicted.Values[:n]
	if fromHour > 0 || toHour < 24 {
		act, pred = make([]float64, 0, n), make([]float64, 0, n)
		for i := 0; i < n; i++ {
			h := t.TimeAt(i).Hour()
			if h >= fromHour && h < toHour {
				act = append(act, t.Values[i])
				pred = append(pred, predicted.Values[i])
			}
		}
	}
	c, err := metrics.BinaryConfusion(act, pred)
	if err != nil {
		return ev, fmt.Errorf("niom evaluate: %w", err)
	}
	ev.Confusion = c
	ev.MCC = c.MCC()
	ev.Accuracy = c.Accuracy()
	return ev, nil
}
