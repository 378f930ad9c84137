package timeseries

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestWindows(t *testing.T) {
	s, _ := fromValues(testStart, time.Minute, []float64{1, 1, 1, 5, 5, 5, 9})
	ws, err := s.Windows(3 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 {
		t.Fatalf("Windows() = %d windows, want 2 (trailing partial dropped)", len(ws))
	}
	if ws[0].Mean != 1 || ws[1].Mean != 5 {
		t.Errorf("means = %v, %v", ws[0].Mean, ws[1].Mean)
	}
	if ws[0].Std != 0 || ws[0].AbsDiffMean != 0 {
		t.Errorf("flat window should have zero std/burstiness: %+v", ws[0])
	}
	if !ws[1].Start.Equal(testStart.Add(3 * time.Minute)) {
		t.Errorf("window start = %v", ws[1].Start)
	}
}

func TestWindowsBurstiness(t *testing.T) {
	s, _ := fromValues(testStart, time.Minute, []float64{0, 10, 0, 10})
	ws, err := s.Windows(4 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	w := ws[0]
	if w.AbsDiffMean != 10 {
		t.Errorf("AbsDiffMean = %v, want 10", w.AbsDiffMean)
	}
	if w.Range != 10 || w.Min != 0 || w.Max != 10 {
		t.Errorf("range stats wrong: %+v", w)
	}
}

func TestWindowsErrors(t *testing.T) {
	s := MustNew(testStart, 2*time.Minute, 10)
	if _, err := s.Windows(3 * time.Minute); !errors.Is(err, ErrStepMismatch) {
		t.Errorf("non-multiple width error = %v", err)
	}
	if _, err := s.Windows(0); !errors.Is(err, ErrStepMismatch) {
		t.Errorf("zero width error = %v", err)
	}
}

func TestDetectEdgesBasic(t *testing.T) {
	// Flat 100 W, step up to 1600 W (a 1500 W toaster), step back down.
	vals := make([]float64, 30)
	for i := range vals {
		vals[i] = 100
		if i >= 10 && i < 15 {
			vals[i] = 1600
		}
	}
	s, _ := fromValues(testStart, time.Minute, vals)
	edges := s.DetectEdges(500, 3)
	if len(edges) != 2 {
		t.Fatalf("DetectEdges() = %d edges, want 2: %+v", len(edges), edges)
	}
	if edges[0].Index != 10 || math.Abs(edges[0].Delta-1500) > 1 {
		t.Errorf("rising edge = %+v", edges[0])
	}
	if edges[1].Index != 15 || math.Abs(edges[1].Delta+1500) > 1 {
		t.Errorf("falling edge = %+v", edges[1])
	}
	if !edges[0].Time.Equal(testStart.Add(10 * time.Minute)) {
		t.Errorf("edge time = %v", edges[0].Time)
	}
}

func TestDetectEdgesIgnoresSmallChanges(t *testing.T) {
	vals := []float64{100, 150, 90, 130, 100, 120}
	s, _ := fromValues(testStart, time.Minute, vals)
	if edges := s.DetectEdges(500, 2); len(edges) != 0 {
		t.Errorf("DetectEdges() on jitter = %+v, want none", edges)
	}
}

func TestDetectEdgesSuppressesSpikes(t *testing.T) {
	// A single-sample spike shorter than the pad is not a level change when
	// pad medians are used... it still produces a sample-to-sample delta but
	// the median levels on both sides are equal, so it is rejected.
	vals := []float64{100, 100, 100, 2000, 100, 100, 100}
	s, _ := fromValues(testStart, time.Minute, vals)
	if edges := s.DetectEdges(500, 3); len(edges) != 0 {
		t.Errorf("spike should not produce edges, got %+v", edges)
	}
}

func TestMedianOf(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{name: "empty", in: nil, want: 0},
		{name: "single", in: []float64{3}, want: 3},
		{name: "odd", in: []float64{5, 1, 9}, want: 5},
		{name: "even", in: []float64{4, 1, 3, 2}, want: 2.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := medianOf(tt.in, &[]float64{}); got != tt.want {
				t.Errorf("medianOf(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}
