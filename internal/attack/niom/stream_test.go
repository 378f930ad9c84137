package niom

import (
	"errors"
	"testing"
	"time"

	"privmem/internal/timeseries"
)

// slidingThreshold is the batch oracle a Stream is held to: for each full
// window i of the series it runs the threshold pipeline over the trailing
// min(i+1, history) windows and records the final label.
func slidingThreshold(t *testing.T, power *timeseries.Series, cfg Config, history int) []float64 {
	t.Helper()
	cfg = cfg.withDefaults()
	cfg.Window = effectiveWindow(cfg.Window, power.Step)
	ws, err := power.Windows(cfg.Window)
	if err != nil {
		t.Fatal(err)
	}
	all := compactStats(ws)
	sc := &Scratch{}
	out := make([]float64, len(ws))
	for i := range all {
		lbls := thresholdLabels(all[max(0, i+1-history):i+1], cfg, sc)
		out[i] = lbls[len(lbls)-1]
	}
	return out
}

// streamLabels feeds the series to a fresh Stream sample by sample through
// one reused Scratch and returns the label of every closed window.
func streamLabels(t *testing.T, power *timeseries.Series, cfg Config, history int) []float64 {
	t.Helper()
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
	return got
}

// TestStreamMatchesSlidingThreshold is the online==batch law: a Stream fed
// a metered home sample by sample emits exactly the sliding batch labels,
// bit for bit, at baseline horizons from one window to far past the
// trace's window count, on homes at seeds 0, 7, 41 and 42.
func TestStreamMatchesSlidingThreshold(t *testing.T) {
	cfg := DefaultConfig()
	for _, seed := range []int64{0, 7, 41, 42} {
		power, _ := meteredHome(t, seed, 3)
		for _, history := range []int{1, 4, 16, 97, 1 << 20} {
			want := slidingThreshold(t, power, cfg, history)
			got := streamLabels(t, power, cfg, history)
			if len(got) != len(want) {
				t.Fatalf("seed %d history %d: stream emitted %d labels, batch %d", seed, history, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d history %d: window %d: stream %v != batch %v",
						seed, history, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStreamFullHistoryMatchesDetect pins the degenerate law: with history
// covering every window, the stream's final label equals the batch detector's
// final-window label (both smooth one-sided at the trailing edge), whether
// the history is exactly the window count or far past it.
func TestStreamFullHistoryMatchesDetect(t *testing.T) {
	cfg := DefaultConfig()
	for _, seed := range []int64{0, 7, 42} {
		power, _ := meteredHome(t, seed, 3)
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
		// The batch label of the last full window is the expanded series
		// value at that window's first sample.
		want := batch.Values[(nWin-1)*k]
		for _, history := range []int{nWin, 1 << 20} {
			got := streamLabels(t, power, cfg, history)
			if len(got) != nWin {
				t.Fatalf("seed %d history %d: stream closed %d windows, want %d", seed, history, len(got), nWin)
			}
			if got[nWin-1] != want {
				t.Fatalf("seed %d history %d: final stream label %v != batch final-window label %v",
					seed, history, got[nWin-1], want)
			}
		}
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
}
