package hmm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// streamTestModel builds a 3-chain factorial (12 joint states) and a noisy
// aggregate observation sequence with regime switches, so decoded paths are
// non-trivial.
func streamTestModel(t testing.TB, seed int64, n int) (*Factorial, []float64) {
	t.Helper()
	chains := []*Model{
		{
			Initial: []float64{0.9, 0.1},
			Trans:   [][]float64{{0.95, 0.05}, {0.1, 0.9}},
			Means:   []float64{5, 120},
			Stds:    []float64{4, 12},
		},
		{
			Initial: []float64{0.8, 0.2},
			Trans:   [][]float64{{0.9, 0.1}, {0.2, 0.8}},
			Means:   []float64{0, 400},
			Stds:    []float64{3, 30},
		},
		{
			Initial: []float64{0.6, 0.3, 0.1},
			Trans: [][]float64{
				{0.8, 0.15, 0.05},
				{0.2, 0.7, 0.1},
				{0.1, 0.2, 0.7},
			},
			Means: []float64{10, 800, 1500},
			Stds:  []float64{5, 40, 60},
		},
	}
	f, err := NewFactorial(chains, 25)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	obs := make([]float64, n)
	s := []int{0, 0, 0}
	for i := range obs {
		var sum float64
		for c, m := range chains {
			// Evolve each chain by its transition row.
			u := rng.Float64()
			var cum float64
			for k, p := range m.Trans[s[c]] {
				cum += p
				if u < cum {
					s[c] = k
					break
				}
			}
			sum += m.Means[s[c]] + rng.NormFloat64()*m.Stds[s[c]]
		}
		obs[i] = sum
	}
	return f, obs
}

func pathsEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for t := range a[i] {
			if a[i][t] != b[i][t] {
				return false
			}
		}
	}
	return true
}

// onlineFHMMModel is a two-chain factorial (4 joint states) with a
// deterministic analytic observation track whose phase follows seed:
// regime switches without a random generator.
func onlineFHMMModel(t testing.TB, seed int64) (*Factorial, []float64) {
	t.Helper()
	f, err := NewFactorial([]*Model{
		{
			Initial: []float64{0.6, 0.4},
			Trans:   [][]float64{{0.9, 0.1}, {0.2, 0.8}},
			Means:   []float64{0, 150},
			Stds:    []float64{25, 40},
		},
		{
			Initial: []float64{0.5, 0.5},
			Trans:   [][]float64{{0.85, 0.15}, {0.3, 0.7}},
			Means:   []float64{40, 600},
			Stds:    []float64{30, 70},
		},
	}, 45)
	if err != nil {
		t.Fatal(err)
	}
	obs := make([]float64, 257)
	phase := float64(seed%97) / 97
	for i := range obs {
		x := float64(i)
		obs[i] = 320 + 300*math.Sin(2*math.Pi*(x/48+phase)) + 120*math.Cos(2*math.Pi*(x/7+2*phase))
		if obs[i] < 0 {
			obs[i] = 0
		}
	}
	return f, obs
}

// streamDecode feeds obs to a fresh StreamDecoder one observation at a time,
// flushing after each index in flushAt and at the end, and concatenates
// every emitted window.
func streamDecode(t *testing.T, f *Factorial, obs []float64, window int, flushAt ...int) [][]int {
	t.Helper()
	d, err := f.NewStreamDecoder(window)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]int, len(f.Chains))
	emit := func(w [][]int) {
		for i := range w {
			got[i] = append(got[i], w[i]...)
		}
	}
	for i, x := range obs {
		if w, ok := d.Push(x); ok {
			emit(w)
		}
		if slices.Contains(flushAt, i) {
			if w, ok := d.flush(); ok {
				emit(w)
			}
		}
	}
	if w, ok := d.flush(); ok {
		emit(w)
	}
	return got
}

// TestWindowedReferenceFullWindowEqualsDecode pins the degenerate-window
// law on the oracle: one window covering the whole sequence is full
// Viterbi, so refDecodeWindowed at len(obs) must equal both Decode and the
// verbatim pre-optimization decoder, bit for bit.
func TestWindowedReferenceFullWindowEqualsDecode(t *testing.T) {
	for _, n := range []int{1, 7, 64, 301} {
		f, obs := streamTestModel(t, 11, n)
		want, err := f.Decode(obs)
		if err != nil {
			t.Fatal(err)
		}
		if got := refDecodeWindowed(f, obs, len(obs)); !pathsEqual(got, want) {
			t.Fatalf("n=%d: refDecodeWindowed(len) != Decode", n)
		}
		if got := refFactorialDecode(f, obs); !pathsEqual(got, want) {
			t.Fatalf("n=%d: refFactorialDecode != Decode", n)
		}
	}
}

// TestStreamDecoderMatchesDecodeWindowed pins the online==batch law: a
// stream decoder fed one observation at a time emits exactly the naive
// windowed decode at every boundary, including a trailing partial window,
// on the three-chain model and on the two-chain analytic track at windows
// 1, 16, 64 and the whole trace. On the analytic track it also checks,
// through the exported API alone, that the delta row carried across
// boundaries is the exact forward score — each window's committed final
// state is the final state of Decode over the prefix ending there — and
// that flushing at every window boundary emits what pushing through full
// windows does.
func TestStreamDecoderMatchesDecodeWindowed(t *testing.T) {
	check := func(name string, f *Factorial, obs []float64, window int) {
		t.Helper()
		want := refDecodeWindowed(f, obs, window)
		if got := streamDecode(t, f, obs, window); !pathsEqual(got, want) {
			t.Fatalf("%s n=%d window=%d: stream != refDecodeWindowed", name, len(obs), window)
		}
	}
	for _, tc := range []struct{ n, window int }{
		{1, 1}, {5, 1}, {96, 24}, {100, 24}, {17, 5}, {301, 50},
	} {
		f, obs := streamTestModel(t, 23, tc.n)
		check("three-chain", f, obs, tc.window)
	}
	for _, seed := range []int64{0, 13, 42} {
		f, obs := onlineFHMMModel(t, seed)
		for _, window := range []int{1, 16, 64, len(obs)} {
			check(fmt.Sprintf("two-chain seed %d", seed), f, obs, window)
			got := streamDecode(t, f, obs, window)
			var flushAt []int
			for hi := window; ; hi += window {
				hi = min(hi, len(obs))
				prefix, err := f.Decode(obs[:hi])
				if err != nil {
					t.Fatal(err)
				}
				for c := range got {
					if got[c][hi-1] != prefix[c][hi-1] {
						t.Fatalf("seed %d window %d: chain %d state at boundary %d: stream %d != Decode(prefix) %d",
							seed, window, c, hi, got[c][hi-1], prefix[c][hi-1])
					}
				}
				if hi == len(obs) {
					break
				}
				flushAt = append(flushAt, hi-1)
			}
			// flush at the same boundaries, on a decoder whose own window
			// never closes, must emit the pushed windows.
			if flushed := streamDecode(t, f, obs, len(obs)+1, flushAt...); !pathsEqual(flushed, got) {
				t.Fatalf("seed %d window %d: push != flush at the same boundaries", seed, window)
			}
		}
	}
}

// TestStreamDecoderSurvivesFlushMidWindow checks that flushing a partial
// window and continuing matches the naive decode split at the flush
// boundary: windows [0,13), [13,33), [33,40).
func TestStreamDecoderSurvivesFlushMidWindow(t *testing.T) {
	f, obs := streamTestModel(t, 31, 40)
	want := refDecodeSplit(f, obs, []int{13, 33, 40})
	if got := streamDecode(t, f, obs, 20, 12); !pathsEqual(got, want) {
		t.Fatal("stream with mid-window flush != batch split at the flush boundary")
	}
}

// TestStreamDecoderRejectsBadWindow checks constructor validation.
func TestStreamDecoderRejectsBadWindow(t *testing.T) {
	f, _ := streamTestModel(t, 1, 1)
	for _, window := range []int{0, -1} {
		if _, err := f.NewStreamDecoder(window); !errors.Is(err, ErrBadStream) {
			t.Fatalf("window %d: err = %v, want ErrBadStream", window, err)
		}
	}
}

// TestStreamDecoderFlushEmpty checks the empty-window edge: flush emits
// nothing before the first observation and right after a window closes.
func TestStreamDecoderFlushEmpty(t *testing.T) {
	f, obs := streamTestModel(t, 1, 4)
	d, err := f.NewStreamDecoder(len(obs))
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := d.flush(); ok || w != nil {
		t.Fatalf("flush before any Push = %v, %v", w, ok)
	}
	for _, x := range obs {
		d.Push(x)
	}
	if w, ok := d.flush(); ok || w != nil {
		t.Fatalf("flush after a closed window = %v, %v", w, ok)
	}
}
