// Package fingerprint implements the traffic-analysis attack of §IV: a
// passive observer on (or upstream of) a home LAN — a compromised device in
// promiscuous mode, or an ISP-side eavesdropper — identifies which kinds of
// IoT devices a home owns and profiles occupant behaviour, using only
// encrypted-flow metadata (timing, volume, endpoints).
//
// Two inferences are implemented:
//
//   - Device identification: a nearest-centroid classifier over per-window
//     traffic features, trained on lab captures of known devices.
//   - Occupancy inference: activity-linked devices (cameras, TVs, speakers,
//     locks) emit event traffic when occupants are active, so windows with
//     event-scale flows reveal occupancy — the network-side analogue of the
//     NIOM attack on energy data.
package fingerprint

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"privmem/internal/nettrace"
	"privmem/internal/timeseries"
)

// ErrBadInput indicates unusable inputs.
var ErrBadInput = errors.New("fingerprint: invalid input")

// Classifier identifies device classes from traffic features.
type Classifier struct {
	// window is the feature window the classifier was trained at.
	window time.Duration
	// classes lists the known classes in training order.
	classes []nettrace.Class
	// centroids holds one z-scored centroid per class.
	centroids [][]float64
	// mean and std are the z-scoring parameters.
	mean, std []float64
}

// Train fits a nearest-centroid classifier from a labeled lab capture: the
// attacker records each device type in isolation (as IoT fingerprinting
// papers do) and builds per-class centroids of the feature distribution.
func Train(lab *nettrace.Capture, window time.Duration) (*Classifier, error) {
	feats, err := labFeatures(lab, window)
	if err != nil {
		return nil, err
	}
	return fitCentroid(lab, feats, window)
}

// labFeatures extracts a lab capture's per-device training features at
// window, rejecting a capture with no traffic.
func labFeatures(lab *nettrace.Capture, window time.Duration) (map[string][]nettrace.Features, error) {
	feats, err := nettrace.ExtractFeatures(lab, window)
	if err != nil {
		return nil, fmt.Errorf("fingerprint train: %w", err)
	}
	if len(feats) == 0 {
		return nil, fmt.Errorf("fingerprint train: %w: empty capture", ErrBadInput)
	}
	return feats, nil
}

// fitCentroid fits the nearest-centroid classifier on a lab capture's
// extracted features.
func fitCentroid(lab *nettrace.Capture, feats map[string][]nettrace.Features, window time.Duration) (*Classifier, error) {
	// Devices are visited in sorted order here and in the centroid
	// accumulation below: float accumulation is order-sensitive at the ULP
	// level, and a map-order walk would make mean/std — and with them every
	// centroid — differ bit-wise from run to run.
	devices := make([]string, 0, len(feats))
	nWin := 0
	for name, fs := range feats {
		devices = append(devices, name)
		nWin += len(fs)
	}
	sort.Strings(devices)
	// One flat slab holds every window's vector (row i at i*FeatureDim) —
	// the walk order and per-dimension accumulation order match the old
	// slice-of-vectors layout exactly.
	flat := make([]float64, 0, nWin*nettrace.FeatureDim)
	for _, name := range devices {
		for _, f := range feats[name] {
			flat = f.AppendVector(flat)
		}
	}
	mean := make([]float64, nettrace.FeatureDim)
	std := make([]float64, nettrace.FeatureDim)
	for d := 0; d < nettrace.FeatureDim; d++ {
		var s float64
		for i := 0; i < nWin; i++ {
			s += flat[i*nettrace.FeatureDim+d]
		}
		mean[d] = s / float64(nWin)
		var ss float64
		for i := 0; i < nWin; i++ {
			diff := flat[i*nettrace.FeatureDim+d] - mean[d]
			ss += diff * diff
		}
		std[d] = math.Sqrt(ss / float64(nWin))
		if std[d] == 0 {
			std[d] = 1
		}
	}

	sums := map[nettrace.Class][]float64{}
	counts := map[nettrace.Class]int{}
	row := 0
	for _, dev := range devices {
		fs := feats[dev]
		class, err := lab.DeviceClass(dev)
		if err != nil {
			return nil, fmt.Errorf("fingerprint train: %w", err)
		}
		acc, ok := sums[class]
		if !ok {
			acc = make([]float64, nettrace.FeatureDim)
			sums[class] = acc
		}
		for range fs {
			v := flat[row*nettrace.FeatureDim : (row+1)*nettrace.FeatureDim]
			row++
			for d := range acc {
				acc[d] += (v[d] - mean[d]) / std[d]
			}
			counts[class]++
		}
	}

	c := &Classifier{window: window, mean: mean, std: std}
	for _, class := range nettrace.Classes() {
		if counts[class] == 0 {
			continue
		}
		centroid := make([]float64, nettrace.FeatureDim)
		for d := range centroid {
			centroid[d] = sums[class][d] / float64(counts[class])
		}
		c.classes = append(c.classes, class)
		c.centroids = append(c.centroids, centroid)
	}
	if len(c.classes) == 0 {
		return nil, fmt.Errorf("fingerprint train: %w: no labeled classes", ErrBadInput)
	}
	return c, nil
}

// classifyVector returns the nearest-centroid class for one raw feature
// vector (as produced by Features.Vector), measured in z-scored space.
func (c *Classifier) classifyVector(v []float64) nettrace.Class {
	best, bestD := 0, math.Inf(1)
	for i, centroid := range c.centroids {
		var d float64
		for k := range centroid {
			z := (v[k]-c.mean[k])/c.std[k] - centroid[k]
			d += z * z
		}
		if d < bestD {
			best, bestD = i, d
		}
	}
	return c.classes[best]
}

// ClassifyDevice labels a device by majority vote over its windows.
func (c *Classifier) ClassifyDevice(feats []nettrace.Features) (nettrace.Class, error) {
	if len(feats) == 0 {
		return 0, fmt.Errorf("classify: %w: no windows", ErrBadInput)
	}
	votes := map[nettrace.Class]int{}
	vbuf := make([]float64, 0, nettrace.FeatureDim)
	for _, f := range feats {
		vbuf = f.AppendVector(vbuf[:0])
		votes[c.classifyVector(vbuf)]++
	}
	var best nettrace.Class
	bestN := -1
	for _, class := range nettrace.Classes() {
		if votes[class] > bestN {
			best, bestN = class, votes[class]
		}
	}
	return best, nil
}

// Identification is the result of classifying every device in a capture.
type Identification struct {
	// Predicted maps device name to inferred class. Devices of dropped
	// classes are still predicted (the attacker's view) but excluded from
	// Accuracy.
	Predicted map[string]nettrace.Class
	// Accuracy is the fraction of scorable devices classified correctly.
	Accuracy float64
	// PerClass maps each true class to its recall.
	PerClass map[nettrace.Class]float64
	// DroppedClasses lists classes the classifier saw in the lab but could
	// not fit (too few training windows), in nettrace.Classes order. Victim
	// devices of these classes are structurally unclassifiable — scoring
	// them as plain misclassifications would blame the attacker for a
	// training-data gap — so they are flagged here and excluded from
	// Accuracy and PerClass.
	DroppedClasses []nettrace.Class
	// DroppedDevices counts victim devices excluded from accuracy because
	// their true class was dropped at training.
	DroppedDevices int
}

// identifyFeatures scores one per-device classify function over
// pre-extracted victim features, walking the victim's device list in order
// (devices the attacker never saw traffic from are skipped). dropped lists
// classes the classifier could not learn: their devices are predicted but
// flagged and excluded from the accuracy accounting.
func identifyFeatures(victim *nettrace.Capture, feats map[string][]nettrace.Features,
	classify func([]nettrace.Features) (nettrace.Class, error), dropped []nettrace.Class, label string) (*Identification, error) {
	droppedSet := map[nettrace.Class]bool{}
	for _, class := range dropped {
		droppedSet[class] = true
	}
	out := &Identification{
		Predicted:      map[string]nettrace.Class{},
		PerClass:       map[nettrace.Class]float64{},
		DroppedClasses: dropped,
	}
	correctByClass := map[nettrace.Class]int{}
	totalByClass := map[nettrace.Class]int{}
	var correct, total int
	for _, dev := range victim.Devices {
		fs, ok := feats[dev.Name]
		if !ok {
			continue
		}
		pred, err := classify(fs)
		if err != nil {
			return nil, fmt.Errorf("%s %q: %w", label, dev.Name, err)
		}
		out.Predicted[dev.Name] = pred
		if droppedSet[dev.Class] {
			out.DroppedDevices++
			continue
		}
		total++
		totalByClass[dev.Class]++
		if pred == dev.Class {
			correct++
			correctByClass[dev.Class]++
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("%s: %w: no classifiable devices", label, ErrBadInput)
	}
	out.Accuracy = float64(correct) / float64(total)
	for class, n := range totalByClass {
		out.PerClass[class] = float64(correctByClass[class]) / float64(n)
	}
	return out, nil
}

// Identify classifies every device in a victim capture and scores the
// result against ground truth.
func Identify(c *Classifier, victim *nettrace.Capture) (*Identification, error) {
	feats, err := nettrace.ExtractFeatures(victim, c.window)
	if err != nil {
		return nil, fmt.Errorf("identify: %w", err)
	}
	return identifyFeatures(victim, feats, c.ClassifyDevice, nil, "identify")
}

// OccupancyConfig parameterizes traffic-based occupancy inference.
type OccupancyConfig struct {
	// Window is the inference granularity (default 15 minutes).
	Window time.Duration
	// EventBytes is the flow volume (up+down) above which a flow counts as
	// an activity event rather than a heartbeat (default 50 kB).
	EventBytes int
	// MinEvents is the number of event flows per window that indicates
	// occupancy (default 2).
	MinEvents int
}

// DefaultOccupancyConfig returns the inference configuration used in the
// experiments.
func DefaultOccupancyConfig() OccupancyConfig {
	return OccupancyConfig{Window: 15 * time.Minute, EventBytes: 50_000, MinEvents: 2}
}

// InferOccupancy predicts binary occupancy from a capture: windows with
// enough event-scale flows across the LAN are labeled occupied. The output
// series covers the capture span at the configured window.
func InferOccupancy(cap *nettrace.Capture, cfg OccupancyConfig) (*timeseries.Series, error) {
	d := DefaultOccupancyConfig()
	if cfg.Window == 0 {
		cfg.Window = d.Window
	}
	if cfg.EventBytes == 0 {
		cfg.EventBytes = d.EventBytes
	}
	if cfg.MinEvents == 0 {
		cfg.MinEvents = d.MinEvents
	}
	if cfg.Window <= 0 || cfg.EventBytes <= 0 || cfg.MinEvents <= 0 {
		return nil, fmt.Errorf("infer occupancy: %w: non-positive config", ErrBadInput)
	}
	n := int(cap.End.Sub(cap.Start) / cfg.Window)
	if n <= 0 {
		return nil, fmt.Errorf("infer occupancy: %w: empty capture span", ErrBadInput)
	}
	counts := make([]int, n)
	for _, r := range cap.Records {
		if r.BytesUp+r.BytesDown < cfg.EventBytes {
			continue
		}
		w := nettrace.WindowIndex(cap.Start, r.Time, cfg.Window)
		if w >= 0 && w < n {
			counts[w]++
		}
	}
	out := timeseries.MustNew(cap.Start, cfg.Window, n)
	for i, c := range counts {
		if c >= cfg.MinEvents {
			out.Values[i] = 1
		}
	}
	return out, nil
}
