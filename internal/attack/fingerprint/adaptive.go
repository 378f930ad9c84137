package fingerprint

import (
	"fmt"
	"time"

	"privmem/internal/nettrace"
)

// Adversary is the adaptive traffic-analysis attacker of the arms-race
// evaluation: both classifier variants (nearest-centroid and naive-Bayes)
// fitted on the same lab capture, tagged with a retraining generation.
//
// "I Still See You" (Wang et al.) showed that traffic reshaping defenses
// evaluated against a *static* attacker overstate their protection: an
// attacker that records its own lab devices *behind* the deployed defense
// and refits on the reshaped metadata recovers much of its accuracy,
// because deterministic reshaping maps each device class to a new — but
// still distinctive — feature signature. Adversary models exactly that
// loop: generation 0 trains on clean lab traffic; each Retrain consumes the
// lab capture as reshaped by one more defense generation and produces the
// attacker that has learned through it.
type Adversary struct {
	generation int
	window     time.Duration
	centroid   *Classifier
	bayes      *BayesClassifier
}

// NewAdversary trains the generation-0 adversary on a clean lab capture at
// the given feature window.
func NewAdversary(lab *nettrace.Capture, window time.Duration) (*Adversary, error) {
	return fitAdversary(lab, window, 0)
}

// Retrain fits the next-generation adversary on a defended lab capture: the
// attacker has replayed its lab devices through the victim's defense and
// re-extracts features from what the defense lets an observer see. The
// receiver is unchanged; the returned adversary is generation+1.
func (a *Adversary) Retrain(defendedLab *nettrace.Capture) (*Adversary, error) {
	return fitAdversary(defendedLab, a.window, a.generation+1)
}

// fitAdversary extracts the lab features once and fits both variants on
// them.
func fitAdversary(lab *nettrace.Capture, window time.Duration, generation int) (*Adversary, error) {
	feats, err := labFeatures(lab, window)
	if err != nil {
		return nil, fmt.Errorf("adversary gen %d: %w", generation, err)
	}
	centroid, err := fitCentroid(lab, feats, window)
	if err != nil {
		return nil, fmt.Errorf("adversary gen %d: %w", generation, err)
	}
	bayes, err := fitBayes(lab, feats)
	if err != nil {
		return nil, fmt.Errorf("adversary gen %d: %w", generation, err)
	}
	return &Adversary{
		generation: generation,
		window:     window,
		centroid:   centroid,
		bayes:      bayes,
	}, nil
}

// Window returns the feature window both classifiers were trained at.
func (a *Adversary) Window() time.Duration { return a.window }

// Identify classifies every device in a victim capture with both variants
// over a single feature extraction, and scores each against ground truth.
// Victim devices whose true class the Bayes variant dropped at training are
// flagged in its result (DroppedClasses, DroppedDevices) and excluded from
// its Accuracy rather than scored as misclassifications.
func (a *Adversary) Identify(victim *nettrace.Capture) (centroid, bayes *Identification, err error) {
	feats, err := nettrace.ExtractFeatures(victim, a.window)
	if err != nil {
		return nil, nil, fmt.Errorf("adversary gen %d identify: %w", a.generation, err)
	}
	return a.IdentifyFeatures(victim, feats)
}

// IdentifyFeatures is Identify over features already extracted from the
// victim at the adversary's Window, so several adversaries trained at one
// window can score a victim from one extraction.
func (a *Adversary) IdentifyFeatures(victim *nettrace.Capture, feats map[string][]nettrace.Features) (centroid, bayes *Identification, err error) {
	label := fmt.Sprintf("adversary gen %d identify", a.generation)
	centroid, err = identifyFeatures(victim, feats, a.centroid.ClassifyDevice, nil, label)
	if err != nil {
		return nil, nil, err
	}
	bayes, err = identifyFeatures(victim, feats, a.bayes.ClassifyDevice, a.bayes.dropped, label+" (bayes)")
	if err != nil {
		return nil, nil, err
	}
	return centroid, bayes, nil
}
