package niom

import (
	"errors"
	"testing"
	"time"

	"privmem/internal/timeseries"
)

// streamGolden runs the online==batch law: a Stream fed the series
// sample-by-sample must emit exactly the sliding batch labels.
func streamGolden(t *testing.T, history int) {
	t.Helper()
	power, _ := meteredHome(t, 41, 5)
	cfg := DefaultConfig()

	want, err := SlidingThreshold(power, cfg, history)
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewStream(cfg, power.Step, history, ModeThreshold)
	if err != nil {
		t.Fatal(err)
	}
	sc := &Scratch{}
	var got []float64
	for _, v := range power.Values {
		if l, ok := s.Push(v, sc); ok {
			got = append(got, l)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("stream emitted %d labels, batch %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("history=%d: window %d: stream %v != batch %v",
				history, i, got[i], want[i])
		}
	}
}

// TestStreamMatchesSlidingThreshold pins the threshold stream to its batch
// counterpart bit for bit at several baseline horizons.
func TestStreamMatchesSlidingThreshold(t *testing.T) {
	for _, h := range []int{1, 4, 16, 97} {
		streamGolden(t, h)
	}
}

// TestStreamFullHistoryMatchesDetect pins the degenerate law: with history
// covering every window, the stream's final label equals the batch detector's
// final-window label (both smooth one-sided at the trailing edge).
func TestStreamFullHistoryMatchesDetect(t *testing.T) {
	power, _ := meteredHome(t, 42, 3)
	cfg := DefaultConfig()
	step := power.Step
	k := int(effectiveWindow(cfg.Window, step) / step)
	nWin := power.Len() / k
	if nWin < 8 {
		t.Fatalf("trace too short: %d windows", nWin)
	}

	batch, err := DetectThreshold(power, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The batch label of the last full window is the expanded series value
	// at that window's first sample.
	want := batch.Values[(nWin-1)*k]

	s, err := NewStream(cfg, step, nWin, ModeThreshold)
	if err != nil {
		t.Fatal(err)
	}
	var got float64
	seen := 0
	for _, v := range power.Values {
		if l, ok := s.Push(v, nil); ok {
			got = l
			seen++
		}
	}
	if seen != nWin {
		t.Fatalf("stream closed %d windows, want %d", seen, nWin)
	}
	if got != want {
		t.Fatalf("final stream label %v != batch final-window label %v", got, want)
	}
}

// TestStreamScratchIndependence checks that labels do not depend on scratch
// reuse: a fresh Scratch per push and one shared Scratch agree exactly.
func TestStreamScratchIndependence(t *testing.T) {
	power, _ := meteredHome(t, 43, 2)
	cfg := DefaultConfig()
	a, err := NewStream(cfg, power.Step, 16, ModeThreshold)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStream(cfg, power.Step, 16, ModeThreshold)
	if err != nil {
		t.Fatal(err)
	}
	sc := &Scratch{}
	for _, v := range power.Values {
		la, oka := a.Push(v, sc)
		lb, okb := b.Push(v, &Scratch{})
		if oka != okb || la != lb {
			t.Fatal("scratch reuse changed stream output")
		}
	}
}

// TestStreamRejectsBadParams checks constructor validation.
func TestStreamRejectsBadParams(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := NewStream(cfg, 0, 4, ModeThreshold); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("zero step: %v", err)
	}
	if _, err := NewStream(cfg, time.Minute, 0, ModeThreshold); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("zero history: %v", err)
	}
	if _, err := NewStream(cfg, time.Minute, 4, Mode(9)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("bad mode: %v", err)
	}
	bad := cfg
	bad.SmoothWindows = 2
	if _, err := NewStream(bad, time.Minute, 4, ModeThreshold); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("even smoothing: %v", err)
	}
	if _, err := SlidingThreshold(timeseries.MustNew(time.Time{}, time.Minute, 4), cfg, 0); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("sliding zero history: %v", err)
	}
}
