package hmm

import (
	"math/rand"
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

// TestDecodeWindowedFullWindowEqualsDecode pins the degenerate-window law:
// one window covering the whole sequence is full Viterbi, bit for bit.
func TestDecodeWindowedFullWindowEqualsDecode(t *testing.T) {
	for _, n := range []int{1, 7, 64, 301} {
		f, obs := streamTestModel(t, 11, n)
		want, err := f.Decode(obs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.DecodeWindowed(obs, len(obs))
		if err != nil {
			t.Fatal(err)
		}
		if !pathsEqual(got, want) {
			t.Fatalf("n=%d: DecodeWindowed(len) != Decode", n)
		}
	}
}

// TestStreamDecoderMatchesDecodeWindowed pins the online==batch law: a
// stream decoder fed one observation at a time emits exactly the windowed
// batch decode at every boundary, including a trailing partial window.
func TestStreamDecoderMatchesDecodeWindowed(t *testing.T) {
	for _, tc := range []struct{ n, window int }{
		{1, 1}, {5, 1}, {96, 24}, {100, 24}, {17, 5}, {301, 50},
	} {
		f, obs := streamTestModel(t, 23, tc.n)
		want, err := f.DecodeWindowed(obs, tc.window)
		if err != nil {
			t.Fatal(err)
		}
		d, err := f.NewStreamDecoder(tc.window)
		if err != nil {
			t.Fatal(err)
		}
		got := make([][]int, len(f.Chains))
		emit := func(w [][]int) {
			for i := range w {
				got[i] = append(got[i], w[i]...)
			}
		}
		for _, x := range obs {
			if w, ok := d.Push(x); ok {
				emit(w)
			}
		}
		if w, ok := d.Flush(); ok {
			emit(w)
		}
		if !pathsEqual(got, want) {
			t.Fatalf("n=%d window=%d: stream != DecodeWindowed", tc.n, tc.window)
		}
	}
}

// TestStreamDecoderSurvivesFlushMidWindow checks that flushing a partial
// window and continuing matches batch decode split at the flush boundary.
func TestStreamDecoderSurvivesFlushMidWindow(t *testing.T) {
	f, obs := streamTestModel(t, 31, 40)
	// Batch reference: windows [0,13), [13,33), [33,40) — flush at 13, then
	// window 20, then final flush.
	p := f.prepTables()
	nj := p.nj
	delta := make([]float64, nj)
	next := make([]float64, nj)
	prev := make([]int32, 20*nj)
	want := make([][]int, len(f.Chains))
	for i := range want {
		want[i] = make([]int, len(obs))
	}
	bounds := [][2]int{{0, 13}, {13, 33}, {33, 40}}
	for _, b := range bounds {
		for tt := b[0]; tt < b[1]; tt++ {
			r := tt - b[0]
			if tt == 0 {
				for j := 0; j < nj; j++ {
					delta[j] = p.initLog[j] + p.emitLog(obs[0], j)
				}
				continue
			}
			p.sweep(obs[tt], delta, next, prev[r*nj:(r+1)*nj])
			delta, next = next, delta
		}
		emitWindow(p, delta, prev, want, b[0], b[1]-b[0])
	}

	d, err := f.NewStreamDecoder(20)
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
		if i == 12 {
			if w, ok := d.Flush(); ok {
				emit(w)
			}
		}
	}
	if w, ok := d.Flush(); ok {
		emit(w)
	}
	if !pathsEqual(got, want) {
		t.Fatal("stream with mid-window flush != batch split at the flush boundary")
	}
}

// TestStreamDecoderRejectsBadWindow checks constructor validation.
func TestStreamDecoderRejectsBadWindow(t *testing.T) {
	f, _ := streamTestModel(t, 1, 1)
	if _, err := f.NewStreamDecoder(0); err == nil {
		t.Fatal("window 0 accepted")
	}
	if _, err := f.DecodeWindowed([]float64{1}, -1); err == nil {
		t.Fatal("negative window accepted")
	}
}

// TestDecodeWindowedEmpty checks the empty-observation edge.
func TestDecodeWindowedEmpty(t *testing.T) {
	f, _ := streamTestModel(t, 1, 1)
	out, err := f.DecodeWindowed(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(f.Chains) {
		t.Fatalf("got %d chains", len(out))
	}
	for _, p := range out {
		if len(p) != 0 {
			t.Fatal("non-empty path for empty observations")
		}
	}
}
