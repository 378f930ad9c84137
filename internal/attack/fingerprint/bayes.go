package fingerprint

import (
	"fmt"
	"math"
	"sort"

	"privmem/internal/nettrace"
)

// BayesClassifier is a Gaussian naive-Bayes device classifier: per class,
// each feature dimension is modeled as an independent Gaussian fitted on
// the lab capture. It is the probabilistic counterpart to the
// nearest-centroid Classifier; the two agree on easy classes and differ on
// classes whose feature variance carries signal (a thermostat's metronomic
// heartbeats have tiny variance; a camera's bursts have huge variance).
type BayesClassifier struct {
	classes []nettrace.Class
	// means[c][d], stds[c][d], and logPrior[c] are the fitted parameters.
	means, stds [][]float64
	logPrior    []float64
	// dropped lists classes present in the lab capture but below the
	// training-window floor, in nettrace.Classes order. They are surfaced
	// through Identification.DroppedClasses so accuracy accounting can
	// exclude their devices instead of silently scoring them as
	// misclassifications.
	dropped []nettrace.Class
}

// minBayesWindows is the per-class training floor: a Gaussian fitted on
// fewer windows has a degenerate variance estimate.
const minBayesWindows = 4

// Dropped returns the classes the lab capture contained but the fit could
// not learn (fewer than minBayesWindows feature windows).
func (c *BayesClassifier) Dropped() []nettrace.Class { return c.dropped }

// fitBayes fits the naive-Bayes classifier on a labeled lab capture's
// extracted features.
func fitBayes(lab *nettrace.Capture, feats map[string][]nettrace.Features) (*BayesClassifier, error) {
	// Sorted device walk: per-class mean/std are float reductions over the
	// accumulated vectors, so a map-order walk would make the fitted
	// parameters differ at the ULP level between runs of a lab with several
	// devices per class (the same defect the sorted walk in Train fixes).
	devices := make([]string, 0, len(feats))
	for name := range feats {
		devices = append(devices, name)
	}
	sort.Strings(devices)
	byClass := map[nettrace.Class][][]float64{}
	var total int
	for _, dev := range devices {
		class, err := lab.DeviceClass(dev)
		if err != nil {
			return nil, fmt.Errorf("fingerprint bayes train: %w", err)
		}
		for _, f := range feats[dev] {
			byClass[class] = append(byClass[class], f.Vector())
			total++
		}
	}
	c := &BayesClassifier{}
	for _, class := range nettrace.Classes() {
		vecs := byClass[class]
		if len(vecs) > 0 && len(vecs) < minBayesWindows {
			c.dropped = append(c.dropped, class)
		}
		if len(vecs) < minBayesWindows {
			continue
		}
		means := make([]float64, nettrace.FeatureDim)
		stds := make([]float64, nettrace.FeatureDim)
		for d := 0; d < nettrace.FeatureDim; d++ {
			var sum float64
			for _, v := range vecs {
				sum += v[d]
			}
			means[d] = sum / float64(len(vecs))
			var ss float64
			for _, v := range vecs {
				diff := v[d] - means[d]
				ss += diff * diff
			}
			stds[d] = math.Sqrt(ss / float64(len(vecs)))
			if stds[d] < 0.05 {
				// Variance floor: a dimension that never varied in the lab
				// would otherwise veto any test sample that differs at all.
				stds[d] = 0.05
			}
		}
		c.classes = append(c.classes, class)
		c.means = append(c.means, means)
		c.stds = append(c.stds, stds)
		c.logPrior = append(c.logPrior, math.Log(float64(len(vecs))/float64(total)))
	}
	if len(c.classes) == 0 {
		return nil, fmt.Errorf("fingerprint bayes train: %w: no class has enough windows", ErrBadInput)
	}
	return c, nil
}

// logLikelihood scores one feature vector under one class.
func (c *BayesClassifier) logLikelihood(ci int, v []float64) float64 {
	ll := c.logPrior[ci]
	for d := range v {
		mean, std := c.means[ci][d], c.stds[ci][d]
		z := (v[d] - mean) / std
		ll += -0.5*z*z - math.Log(std)
	}
	return ll
}

// ClassifyDevice labels a device by summing per-window log-likelihoods (the
// windows are conditionally independent given the class).
func (c *BayesClassifier) ClassifyDevice(feats []nettrace.Features) (nettrace.Class, error) {
	if len(feats) == 0 {
		return 0, fmt.Errorf("bayes classify: %w: no windows", ErrBadInput)
	}
	best, bestLL := c.classes[0], math.Inf(-1)
	for ci, class := range c.classes {
		var ll float64
		for _, f := range feats {
			ll += c.logLikelihood(ci, f.Vector())
		}
		if ll > bestLL {
			best, bestLL = class, ll
		}
	}
	return best, nil
}
