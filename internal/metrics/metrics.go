// Package metrics provides the evaluation measures reported in the paper:
// the Matthews Correlation Coefficient used to score occupancy attacks and
// defenses (Figure 6), the disaggregation error factor used to compare NILM
// methods (Figure 2), the haversine distance used to score solar
// localization (Figure 5), and standard regression/classification measures.
package metrics

import (
	"errors"
	"fmt"
	"math"
)

// ErrLengthMismatch indicates paired inputs of different lengths.
var ErrLengthMismatch = errors.New("metrics: length mismatch")

// Confusion is a binary-classification confusion matrix.
type Confusion struct {
	// TP, TN, FP, FN count true/false positives/negatives.
	TP, TN, FP, FN int
}

// BinaryConfusion tallies predicted against actual indicator slices, where a
// value >= 0.5 counts as positive.
func BinaryConfusion(actual, predicted []float64) (Confusion, error) {
	var c Confusion
	if len(actual) != len(predicted) {
		return c, fmt.Errorf("confusion: %d vs %d: %w", len(actual), len(predicted), ErrLengthMismatch)
	}
	for i := range actual {
		a, p := actual[i] >= 0.5, predicted[i] >= 0.5
		switch {
		case a && p:
			c.TP++
		case !a && !p:
			c.TN++
		case !a && p:
			c.FP++
		default:
			c.FN++
		}
	}
	return c, nil
}

// Total returns the number of classified samples.
func (c Confusion) Total() int { return c.TP + c.TN + c.FP + c.FN }

// Accuracy returns (TP+TN)/total, or 0 when empty.
func (c Confusion) Accuracy() float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(c.Total())
}

// MCC returns the Matthews Correlation Coefficient [Matthews 1975], the
// binary-classifier quality measure the paper uses for occupancy detection:
// 1.0 is perfect detection, 0.0 is random prediction, and -1.0 is always
// wrong. When any marginal is zero (degenerate classifier or degenerate
// ground truth) MCC is defined as 0, matching the random-prediction reading.
func (c Confusion) MCC() float64 {
	tp, tn := float64(c.TP), float64(c.TN)
	fp, fn := float64(c.FP), float64(c.FN)
	den := math.Sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
	if den == 0 {
		return 0
	}
	return (tp*tn - fp*fn) / den
}

// String renders the confusion matrix compactly.
func (c Confusion) String() string {
	return fmt.Sprintf("Confusion{TP=%d TN=%d FP=%d FN=%d acc=%.3f mcc=%.3f}",
		c.TP, c.TN, c.FP, c.FN, c.Accuracy(), c.MCC())
}

// DisaggregationError returns the NILM tracking error factor of Figure 2:
// the cumulative absolute difference between a device's actual and inferred
// power, normalized by the device's total actual usage. Zero is perfect
// tracking; one is as bad as always inferring zero; there is no upper bound.
func DisaggregationError(actual, inferred []float64) (float64, error) {
	if len(actual) != len(inferred) {
		return 0, fmt.Errorf("disaggregation error: %d vs %d: %w",
			len(actual), len(inferred), ErrLengthMismatch)
	}
	var errSum, total float64
	for i := range actual {
		errSum += math.Abs(actual[i] - inferred[i])
		total += math.Abs(actual[i])
	}
	if total == 0 {
		if errSum == 0 {
			return 0, nil
		}
		return math.Inf(1), nil
	}
	return errSum / total, nil
}

// MAPE returns the mean absolute percentage error over samples whose actual
// value is non-zero, as a fraction (0.1 == 10%).
func MAPE(actual, predicted []float64) (float64, error) {
	if len(actual) != len(predicted) {
		return 0, fmt.Errorf("mape: %w", ErrLengthMismatch)
	}
	var s float64
	var n int
	for i := range actual {
		if actual[i] != 0 {
			s += math.Abs((actual[i] - predicted[i]) / actual[i])
			n++
		}
	}
	if n == 0 {
		return 0, nil
	}
	return s / float64(n), nil
}

// EarthRadiusKm is the mean Earth radius used by HaversineKm.
const EarthRadiusKm = 6371.0

// HaversineKm returns the great-circle distance in kilometers between two
// (latitude, longitude) points given in degrees. Figure 5 reports
// localization accuracy as this distance between the inferred and true
// solar-site locations.
func HaversineKm(lat1, lon1, lat2, lon2 float64) float64 {
	const degToRad = math.Pi / 180
	phi1, phi2 := lat1*degToRad, lat2*degToRad
	dphi := (lat2 - lat1) * degToRad
	dlam := (lon2 - lon1) * degToRad
	a := math.Sin(dphi/2)*math.Sin(dphi/2) +
		math.Cos(phi1)*math.Cos(phi2)*math.Sin(dlam/2)*math.Sin(dlam/2)
	return 2 * EarthRadiusKm * math.Asin(min(1, math.Sqrt(a)))
}
