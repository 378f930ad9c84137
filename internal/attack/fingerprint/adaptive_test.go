package fingerprint

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"privmem/internal/defense/gateway"
	"privmem/internal/nettrace"
)

func victimCapture(t *testing.T, seed int64) *nettrace.Capture {
	t.Helper()
	cap, err := nettrace.Simulate(nettrace.DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return cap
}

func TestAdversaryGenerationZero(t *testing.T) {
	lab := labCapture(t, 31)
	a0, err := NewAdversary(lab, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if a0.generation != 0 {
		t.Errorf("generation = %d, want 0", a0.generation)
	}
	if a0.Window() != time.Hour {
		t.Errorf("window = %v", a0.Window())
	}
	c, b, err := a0.Identify(victimCapture(t, 32))
	if err != nil {
		t.Fatal(err)
	}
	// Both variants must match their standalone trainers bit-for-bit: the
	// adversary is a bundling, not a reimplementation.
	standalone, err := Train(lab, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a0.centroid, standalone) {
		t.Error("adversary centroid differs from standalone Train")
	}
	if c.Accuracy < 0.7 || b.Accuracy < 0.6 {
		t.Errorf("gen-0 clean accuracy centroid=%.3f bayes=%.3f", c.Accuracy, b.Accuracy)
	}
}

// TestRetrainBeatsStaticThroughShaping pins the arms-race headline from
// "I Still See You": per-device constant-rate shaping defeats the static
// gen-0 attacker, but a gen-1 attacker retrained on its own lab devices
// behind the same defense recovers — the per-device envelopes are a new,
// still class-distinctive signature.
func TestRetrainBeatsStaticThroughShaping(t *testing.T) {
	lab := labCapture(t, 1)
	victim := victimCapture(t, 2)
	a0, err := NewAdversary(lab, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	shapedVictim, _, err := gateway.Shape(victim, gateway.ShapeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	shapedLab, _, err := gateway.Shape(lab, gateway.ShapeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	a1, err := a0.Retrain(shapedLab)
	if err != nil {
		t.Fatal(err)
	}
	if a1.generation != 1 {
		t.Errorf("retrained generation = %d, want 1", a1.generation)
	}
	if a0.generation != 0 {
		t.Error("Retrain mutated its receiver")
	}
	c0, _, err := a0.Identify(shapedVictim)
	if err != nil {
		t.Fatal(err)
	}
	c1, _, err := a1.Identify(shapedVictim)
	if err != nil {
		t.Fatal(err)
	}
	if c0.Accuracy > 0.4 {
		t.Errorf("static attacker on shaped traffic = %.3f, expected collapse below 0.4", c0.Accuracy)
	}
	if c1.Accuracy <= c0.Accuracy {
		t.Errorf("gen-1 (%.3f) must strictly beat gen-0 (%.3f) on shaped traffic", c1.Accuracy, c0.Accuracy)
	}
	if c1.Accuracy < 0.8 {
		t.Errorf("retrained attacker = %.3f, expected near-full recovery (> 0.8)", c1.Accuracy)
	}
}

// TestUniformShapingResistsRetraining pins the counterpoint: a single
// LAN-wide envelope leaves nothing class-distinctive to relearn, so even
// the retrained attacker stays near chance.
func TestUniformShapingResistsRetraining(t *testing.T) {
	lab := labCapture(t, 1)
	victim := victimCapture(t, 2)
	a0, err := NewAdversary(lab, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gateway.ShapeConfig{Uniform: true}
	shapedVictim, _, err := gateway.Shape(victim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shapedLab, _, err := gateway.Shape(lab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := a0.Retrain(shapedLab)
	if err != nil {
		t.Fatal(err)
	}
	c1, _, err := a1.Identify(shapedVictim)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Accuracy > 0.3 {
		t.Errorf("retrained attacker on uniform shaping = %.3f, want near chance (<= 0.3)", c1.Accuracy)
	}
}

func TestAdversaryValidation(t *testing.T) {
	if _, err := NewAdversary(&nettrace.Capture{}, time.Hour); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty lab error = %v", err)
	}
	a0, err := NewAdversary(labCapture(t, 33), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a0.Retrain(&nettrace.Capture{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty defended lab error = %v", err)
	}
	epoch := time.Date(2017, 6, 5, 0, 0, 0, 0, time.UTC)
	if _, _, err := a0.Identify(&nettrace.Capture{Start: epoch, End: epoch}); err == nil {
		t.Error("identify on empty capture should fail")
	}
}

// TestIdentifyFeaturesMatchesIdentify pins IdentifyFeatures to Identify
// for every generation of an arms race: scoring a victim from one shared
// extraction gives the results a fresh extraction per generation gives.
func TestIdentifyFeaturesMatchesIdentify(t *testing.T) {
	lab := labCapture(t, 41)
	victim := victimCapture(t, 42)
	a0, err := NewAdversary(lab, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	adversaries := []*Adversary{a0}
	victims := []*nettrace.Capture{victim}
	for _, cfg := range []gateway.ShapeConfig{{}, {CellBytes: 200_000}} {
		shapedLab, _, err := gateway.Shape(lab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		shapedVictim, _, err := gateway.Shape(victim, cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, err := a0.Retrain(shapedLab)
		if err != nil {
			t.Fatal(err)
		}
		adversaries = append(adversaries, a)
		victims = append(victims, shapedVictim)
	}
	for i, v := range victims {
		feats, err := nettrace.ExtractFeatures(v, a0.Window())
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range adversaries {
			wantC, wantB, err := a.Identify(v)
			if err != nil {
				t.Fatal(err)
			}
			gotC, gotB, err := a.IdentifyFeatures(v, feats)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotC, wantC) || !reflect.DeepEqual(gotB, wantB) {
				t.Errorf("victim %d, generation %d: IdentifyFeatures differs from Identify", i, a.generation)
			}
		}
	}
}
