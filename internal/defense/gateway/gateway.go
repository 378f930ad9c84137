// Package gateway implements the "smart gateway router" the paper sketches
// in §IV: a home router that (a) learns each IoT device's normal traffic
// profile, (b) detects compromised devices from profile deviations and
// quarantines them (the principle of least privilege for devices users
// cannot inspect), and (c) shapes traffic with padding and batching so that
// an upstream eavesdropper can no longer fingerprint devices or infer
// occupant activity from flow metadata.
package gateway

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"privmem/internal/nettrace"
	"privmem/internal/stats"
)

// ErrBadConfig indicates invalid gateway parameters.
var ErrBadConfig = errors.New("gateway: invalid config")

// MonitorConfig parameterizes profiling and anomaly detection.
type MonitorConfig struct {
	// Window is the analysis granularity (default 10 minutes).
	Window time.Duration
	// ScoreThreshold is the anomaly score that marks a window suspicious
	// (default 3).
	ScoreThreshold float64
	// ConsecutiveWindows is how many suspicious windows in a row trigger
	// quarantine (default 2) — a debounce against benign bursts.
	ConsecutiveWindows int
}

// DefaultMonitorConfig returns the detector configuration used in the
// experiments.
func DefaultMonitorConfig() MonitorConfig {
	return MonitorConfig{
		Window:             10 * time.Minute,
		ScoreThreshold:     3,
		ConsecutiveWindows: 2,
	}
}

func (c *MonitorConfig) withDefaults() MonitorConfig {
	out := *c
	d := DefaultMonitorConfig()
	if out.Window == 0 {
		out.Window = d.Window
	}
	if out.ScoreThreshold == 0 {
		out.ScoreThreshold = d.ScoreThreshold
	}
	if out.ConsecutiveWindows == 0 {
		out.ConsecutiveWindows = d.ConsecutiveWindows
	}
	return out
}

func (c *MonitorConfig) validate() error {
	switch {
	case c.Window <= 0:
		return fmt.Errorf("%w: window %v", ErrBadConfig, c.Window)
	case c.ScoreThreshold <= 0:
		return fmt.Errorf("%w: threshold %v", ErrBadConfig, c.ScoreThreshold)
	case c.ConsecutiveWindows < 1:
		return fmt.Errorf("%w: consecutive windows %d", ErrBadConfig, c.ConsecutiveWindows)
	}
	return nil
}

// profile is one device's learned baseline.
type profile struct {
	endpoints           map[string]bool
	meanFlows, stdFlows float64
	meanUp, stdUp       float64
}

// Monitor holds learned device baselines.
type Monitor struct {
	cfg      MonitorConfig
	profiles map[string]profile
}

// LearnProfiles builds per-device baselines from a clean training capture.
func LearnProfiles(clean *nettrace.Capture, cfg MonitorConfig) (*Monitor, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("learn profiles: %w", err)
	}
	feats, err := nettrace.ExtractFeatures(clean, cfg.Window)
	if err != nil {
		return nil, fmt.Errorf("learn profiles: %w", err)
	}
	if len(feats) == 0 {
		return nil, fmt.Errorf("learn profiles: %w: empty capture", ErrBadConfig)
	}
	m := &Monitor{cfg: cfg, profiles: map[string]profile{}}
	endpointsByDev := map[string]map[string]bool{}
	for _, r := range clean.Records {
		set, ok := endpointsByDev[r.Device]
		if !ok {
			set = map[string]bool{}
			endpointsByDev[r.Device] = set
		}
		set[r.Endpoint] = true
	}
	for dev, fs := range feats {
		var flows, ups []float64
		for _, f := range fs {
			flows = append(flows, float64(f.Flows))
			ups = append(ups, f.BytesUp)
		}
		m.profiles[dev] = profile{
			endpoints: endpointsByDev[dev],
			meanFlows: stats.Mean(flows),
			stdFlows:  max(stats.Std(flows), 1),
			meanUp:    stats.Mean(ups),
			stdUp:     max(stats.Std(ups), 1),
		}
	}
	return m, nil
}

// Alert reports a quarantined device.
type Alert struct {
	// Device is the quarantined device.
	Device string
	// At is the quarantine time (start of the confirming window).
	At time.Time
	// Score is the anomaly score at quarantine.
	Score float64
	// Reasons describes the contributing deviations.
	Reasons []string
}

// Scan replays a capture against the learned profiles and returns at most
// one alert per device (its quarantine moment). Devices without a learned
// profile are flagged immediately (unknown hardware on the LAN).
func (m *Monitor) Scan(cap *nettrace.Capture) ([]Alert, error) {
	feats, err := nettrace.ExtractFeatures(cap, m.cfg.Window)
	if err != nil {
		return nil, fmt.Errorf("scan: %w", err)
	}
	// Count all and unknown-endpoint flows per device window: device i's
	// windows [0, n) of the capture span live at counts[i*n : (i+1)*n], as
	// Shape's vols do. Records outside the span (a hand-built capture can
	// hold them) are counted in outside.
	type winCount struct{ total, unknown int }
	type devWin struct {
		dev int
		w   int
	}
	n := 0
	if cap.End.After(cap.Start) {
		n = nettrace.WindowIndex(cap.Start, cap.End, m.cfg.Window) + 1
	}
	devIdx := make(map[string]int, len(cap.Devices))
	var endpoints []map[string]bool // per device; nil without a profile
	addDev := func(name string) int {
		i, ok := devIdx[name]
		if !ok {
			i = len(endpoints)
			devIdx[name] = i
			endpoints = append(endpoints, m.profiles[name].endpoints)
		}
		return i
	}
	for _, d := range cap.Devices {
		addDev(d.Name)
	}
	counts := make([]winCount, len(endpoints)*n)
	outside := map[devWin]*winCount{}
	countAt := func(di, w int) *winCount {
		if w >= 0 && w < n {
			return &counts[di*n+w]
		}
		c := outside[devWin{di, w}]
		if c == nil {
			c = &winCount{}
			outside[devWin{di, w}] = c
		}
		return c
	}
	for i := range cap.Records {
		r := &cap.Records[i]
		di := addDev(r.Device)
		if (di+1)*n > len(counts) {
			// A device seen only in records, never declared: extend the slab.
			counts = append(counts, make([]winCount, n)...)
		}
		c := countAt(di, nettrace.WindowIndex(cap.Start, r.Time, m.cfg.Window))
		c.total++
		if !endpoints[di][r.Endpoint] {
			c.unknown++
		}
	}

	var alerts []Alert
	for dev, fs := range feats {
		p, known := m.profiles[dev]
		if !known {
			alerts = append(alerts, Alert{
				Device:  dev,
				At:      cap.Start,
				Score:   math.Inf(1),
				Reasons: []string{"unknown device"},
			})
			continue
		}
		streak := 0
		for _, f := range fs {
			c := countAt(devIdx[dev], nettrace.WindowIndex(cap.Start, f.WindowStart, m.cfg.Window))
			score, reasons := m.score(p, f, c.unknown, c.total)
			if score >= m.cfg.ScoreThreshold {
				streak++
				if streak >= m.cfg.ConsecutiveWindows {
					alerts = append(alerts, Alert{
						Device:  dev,
						At:      f.WindowStart,
						Score:   score,
						Reasons: reasons,
					})
					break
				}
			} else {
				streak = 0
			}
		}
	}
	// feats is a map, so alerts arrive in iteration order; the device name
	// breaks ties between devices quarantined in the same window.
	sort.Slice(alerts, func(i, j int) bool {
		if !alerts[i].At.Equal(alerts[j].At) {
			return alerts[i].At.Before(alerts[j].At)
		}
		return alerts[i].Device < alerts[j].Device
	})
	return alerts, nil
}

// score combines endpoint novelty, flow-rate, and upload-volume deviations.
func (m *Monitor) score(p profile, f nettrace.Features, unknown, total int) (float64, []string) {
	var score float64
	var reasons []string
	if total > 0 && unknown > 0 {
		frac := float64(unknown) / float64(total)
		score += 6 * frac
		reasons = append(reasons, fmt.Sprintf("%.0f%% flows to unknown endpoints", frac*100))
	}
	if z := (float64(f.Flows) - p.meanFlows) / p.stdFlows; z > 4 {
		score += z / 4
		reasons = append(reasons, fmt.Sprintf("flow rate %.0f sigma above baseline", z))
	}
	if z := (f.BytesUp - p.meanUp) / p.stdUp; z > 4 {
		score += z / 4
		reasons = append(reasons, fmt.Sprintf("upload volume %.0f sigma above baseline", z))
	}
	return score, reasons
}
