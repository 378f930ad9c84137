package hmm

// Golden conformance tests for the decode engine: the reference
// implementations below are the pre-optimization naive kernels (per-call
// table builds, no transposition, no hoisting), and refDecodeWindowed is
// the bounded-lag decoder written on the same naive kernel. The engine must
// reproduce their output bit for bit — same states, same tie-breaking, same
// log-probabilities — on randomized models, which is what licenses the
// caching as a pure performance change.

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"privmem/internal/par"
)

// refLogGauss is the naive per-call Gaussian log density.
func refLogGauss(x, mean, std float64) float64 {
	if std < minStd {
		std = minStd
	}
	d := (x - mean) / std
	return -0.5*d*d - math.Log(std) - 0.5*math.Log(2*math.Pi)
}

// refViterbi is the pre-optimization single-chain decoder.
func refViterbi(m *Model, obs []float64) ([]int, float64) {
	if len(obs) == 0 {
		return nil, 0
	}
	k := m.K()
	delta := make([]float64, k)
	prev := make([][]int16, len(obs))
	for s := 0; s < k; s++ {
		delta[s] = safeLog(m.Initial[s]) + refLogGauss(obs[0], m.Means[s], m.Stds[s])
	}
	next := make([]float64, k)
	for t := 1; t < len(obs); t++ {
		prev[t] = make([]int16, k)
		for s := 0; s < k; s++ {
			best, arg := math.Inf(-1), 0
			for r := 0; r < k; r++ {
				v := delta[r] + safeLog(m.Trans[r][s])
				if v > best {
					best, arg = v, r
				}
			}
			next[s] = best + refLogGauss(obs[t], m.Means[s], m.Stds[s])
			prev[t][s] = int16(arg)
		}
		delta, next = next, delta
	}
	best, arg := math.Inf(-1), 0
	for s := 0; s < k; s++ {
		if delta[s] > best {
			best, arg = delta[s], s
		}
	}
	path := make([]int, len(obs))
	path[len(obs)-1] = arg
	for t := len(obs) - 1; t > 0; t-- {
		arg = int(prev[t][arg])
		path[t-1] = arg
	}
	return path, best
}

// refTables holds the naive joint decode tables: per joint state its summed
// emission mean, unclamped emission std and initial log probability, and
// the row-major joint log-transition matrix transLog[a][b] = log P(a -> b).
type refTables struct {
	sumMean, emitStd, initLog []float64
	transLog                  [][]float64
}

// refFactorialTables builds the joint tables per call, as the
// pre-optimization decoder did.
func refFactorialTables(f *Factorial) refTables {
	nj := f.jointCount()
	nc := len(f.Chains)
	tb := refTables{
		sumMean:  make([]float64, nj),
		emitStd:  make([]float64, nj),
		initLog:  make([]float64, nj),
		transLog: make([][]float64, nj),
	}
	states := make([]int, nc)
	for j := 0; j < nj; j++ {
		f.jointState(j, states)
		variance := f.ObsStd * f.ObsStd
		var lp float64
		for i, c := range f.Chains {
			s := states[i]
			tb.sumMean[j] += c.Means[s]
			variance += c.Stds[s] * c.Stds[s]
			lp += safeLog(c.Initial[s])
		}
		tb.emitStd[j] = math.Sqrt(variance)
		tb.initLog[j] = lp
	}
	from := make([]int, nc)
	to := make([]int, nc)
	for a := 0; a < nj; a++ {
		tb.transLog[a] = make([]float64, nj)
		f.jointState(a, from)
		for b := 0; b < nj; b++ {
			f.jointState(b, to)
			var lp float64
			for i, c := range f.Chains {
				lp += safeLog(c.Trans[from[i]][to[i]])
			}
			tb.transLog[a][b] = lp
		}
	}
	return tb
}

// refFactorialDecode is the pre-optimization joint decoder.
func refFactorialDecode(f *Factorial, obs []float64) [][]int {
	nj := f.jointCount()
	nc := len(f.Chains)
	if len(obs) == 0 {
		return make([][]int, nc)
	}
	tb := refFactorialTables(f)
	sumMean, emitStd, initLog, transLog := tb.sumMean, tb.emitStd, tb.initLog, tb.transLog
	states := make([]int, nc)
	delta := make([]float64, nj)
	next := make([]float64, nj)
	prev := make([][]int32, len(obs))
	for j := 0; j < nj; j++ {
		delta[j] = initLog[j] + refLogGauss(obs[0], sumMean[j], emitStd[j])
	}
	for t := 1; t < len(obs); t++ {
		prev[t] = make([]int32, nj)
		for b := 0; b < nj; b++ {
			best, arg := math.Inf(-1), 0
			for a := 0; a < nj; a++ {
				if v := delta[a] + transLog[a][b]; v > best {
					best, arg = v, a
				}
			}
			next[b] = best + refLogGauss(obs[t], sumMean[b], emitStd[b])
			prev[t][b] = int32(arg)
		}
		delta, next = next, delta
	}
	best, arg := math.Inf(-1), 0
	for j := 0; j < nj; j++ {
		if delta[j] > best {
			best, arg = delta[j], j
		}
	}
	out := make([][]int, nc)
	for i := range out {
		out[i] = make([]int, len(obs))
	}
	j := arg
	for t := len(obs) - 1; t >= 0; t-- {
		f.jointState(j, states)
		for i := range out {
			out[i][t] = states[i]
		}
		if t > 0 {
			j = int(prev[t][j])
		}
	}
	return out
}

// refDecodeWindowed is the naive bounded-lag decoder the StreamDecoder must
// reproduce: exact Viterbi within each window of `window` observations (the
// last window may be short), the delta row carried across every boundary,
// and at each boundary a commit to the window's maximum-likelihood final
// state, backtracked through that window's lattice alone.
func refDecodeWindowed(f *Factorial, obs []float64, window int) [][]int {
	var ends []int
	for hi := window; hi < len(obs); hi += window {
		ends = append(ends, hi)
	}
	return refDecodeSplit(f, obs, append(ends, len(obs)))
}

// refDecodeSplit is refDecodeWindowed over windows ending at the ascending
// indices ends, the last of which is len(obs).
func refDecodeSplit(f *Factorial, obs []float64, ends []int) [][]int {
	nj := f.jointCount()
	nc := len(f.Chains)
	tb := refFactorialTables(f)
	states := make([]int, nc)
	out := make([][]int, nc)
	for i := range out {
		out[i] = make([]int, len(obs))
	}
	if len(obs) == 0 {
		return out
	}
	var delta []float64
	lo := 0
	for _, hi := range ends {
		// prev[t-lo] is step t's backpointer row; the window's first row
		// points across the boundary and is never followed.
		prev := make([][]int32, hi-lo)
		for t := lo; t < hi; t++ {
			next := make([]float64, nj)
			if t == 0 {
				for j := 0; j < nj; j++ {
					next[j] = tb.initLog[j] + refLogGauss(obs[0], tb.sumMean[j], tb.emitStd[j])
				}
				delta = next
				continue
			}
			prev[t-lo] = make([]int32, nj)
			for b := 0; b < nj; b++ {
				best, arg := math.Inf(-1), 0
				for a := 0; a < nj; a++ {
					if v := delta[a] + tb.transLog[a][b]; v > best {
						best, arg = v, a
					}
				}
				next[b] = best + refLogGauss(obs[t], tb.sumMean[b], tb.emitStd[b])
				prev[t-lo][b] = int32(arg)
			}
			delta = next
		}
		best, j := math.Inf(-1), 0
		for s := 0; s < nj; s++ {
			if delta[s] > best {
				best, j = delta[s], s
			}
		}
		for t := hi - 1; t >= lo; t-- {
			f.jointState(j, states)
			for i := range out {
				out[i][t] = states[i]
			}
			if t > lo {
				j = int(prev[t-lo][j])
			}
		}
		lo = hi
	}
	return out
}

// randomModel draws a valid Gaussian HMM with k states.
func randomModel(rng *rand.Rand, k int) *Model {
	m := &Model{
		Initial: make([]float64, k),
		Trans:   make([][]float64, k),
		Means:   make([]float64, k),
		Stds:    make([]float64, k),
	}
	var sum float64
	for s := 0; s < k; s++ {
		m.Initial[s] = rng.Float64() + 0.05
		sum += m.Initial[s]
		m.Means[s] = rng.Float64() * 2000
		m.Stds[s] = 1 + rng.Float64()*80
	}
	for s := 0; s < k; s++ {
		m.Initial[s] /= sum
	}
	for s := 0; s < k; s++ {
		m.Trans[s] = make([]float64, k)
		var rs float64
		for r := 0; r < k; r++ {
			m.Trans[s][r] = rng.Float64() + 0.02
			rs += m.Trans[s][r]
		}
		for r := 0; r < k; r++ {
			m.Trans[s][r] /= rs
		}
	}
	return m
}

func TestViterbiMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Trials 25-28 decode 1 or 2 observations, where the decoder's initial
	// step meets the backtrack.
	for trial := 0; trial < 29; trial++ {
		k := 1 + rng.Intn(5)
		m := randomModel(rng, k)
		n := 5 + rng.Intn(200)
		if trial >= 25 {
			n = 1 + trial%2
		}
		obs := make([]float64, n)
		for i := range obs {
			obs[i] = rng.Float64() * 2500
		}
		wantPath, wantLP := refViterbi(m, obs)
		gotPath, gotLP, err := m.Viterbi(obs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if gotLP != wantLP {
			t.Fatalf("trial %d: log prob %v != reference %v", trial, gotLP, wantLP)
		}
		if len(gotPath) != len(wantPath) {
			t.Fatalf("trial %d: path length %d, reference %d", trial, len(gotPath), len(wantPath))
		}
		for i := range wantPath {
			if gotPath[i] != wantPath[i] {
				t.Fatalf("trial %d: path[%d] = %d, reference %d", trial, i, gotPath[i], wantPath[i])
			}
		}
	}
}

func checkFactorialAgainstReference(t *testing.T, trial int, f *Factorial, obs []float64) {
	t.Helper()
	want := refFactorialDecode(f, obs)
	got, err := f.Decode(obs)
	if err != nil {
		t.Fatalf("trial %d: %v", trial, err)
	}
	if len(got) != len(want) {
		t.Fatalf("trial %d: %d chains, reference %d", trial, len(got), len(want))
	}
	for c := range want {
		if len(got[c]) != len(want[c]) {
			t.Fatalf("trial %d: chain %d has %d states, reference %d", trial, c, len(got[c]), len(want[c]))
		}
		for i := range want[c] {
			if got[c][i] != want[c][i] {
				t.Fatalf("trial %d: chain %d state[%d] = %d, reference %d",
					trial, c, i, got[c][i], want[c][i])
			}
		}
	}
}

func TestFactorialDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// Trials 12-15 decode 1 or 2 observations, where the decoder's initial
	// step meets the backtrack.
	for trial := 0; trial < 16; trial++ {
		nc := 1 + rng.Intn(4)
		chains := make([]*Model, nc)
		for i := range chains {
			chains[i] = randomModel(rng, 2+rng.Intn(3))
		}
		f, err := NewFactorial(chains, 50+rng.Float64()*200)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		n := 10 + rng.Intn(120)
		if trial >= 12 {
			n = 1 + trial%2
		}
		obs := make([]float64, n)
		for i := range obs {
			obs[i] = rng.Float64() * 4000
		}
		checkFactorialAgainstReference(t, trial, f, obs)
		// A second decode runs on the cached prep tables.
		checkFactorialAgainstReference(t, trial, f, obs)
	}
}

// TestFactorialDecodeParallelMatchesReference decodes independent chunks
// of a large joint lattice concurrently, the way nilm's Disaggregate does,
// and checks every chunk's paths bit for bit against the sequential
// reference.
func TestFactorialDecodeParallelMatchesReference(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	rng := rand.New(rand.NewSource(13))
	// 3 chains of 4 states: nj = 64.
	chains := make([]*Model, 3)
	for i := range chains {
		chains[i] = randomModel(rng, 4)
	}
	f, err := NewFactorial(chains, 120)
	if err != nil {
		t.Fatal(err)
	}
	obs := make([]float64, 400)
	for i := range obs {
		obs[i] = rng.Float64() * 5000
	}
	const chunk = 100
	got := make([][][]int, len(obs)/chunk)
	err = par.For(len(got), func(c int) (err error) {
		got[c], err = f.Decode(obs[c*chunk : (c+1)*chunk])
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for c := range got {
		want := refFactorialDecode(f, obs[c*chunk:(c+1)*chunk])
		for i := range want {
			if !slices.Equal(got[c][i], want[i]) {
				t.Fatalf("chunk %d chain %d: concurrent decode diverged from reference", c, i)
			}
		}
	}
}

func TestFactorialDecodeEmptyObs(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	f, err := NewFactorial([]*Model{randomModel(rng, 2)}, 100)
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != nil {
		t.Fatalf("empty decode = %v, want one nil chain", out)
	}
}

// TestFactorialDecodeConcurrent races concurrent Decode calls on one shared
// Factorial: the cached prep must build exactly once, and each in-flight
// call must decode on its own rows.
func TestFactorialDecodeConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	chains := []*Model{randomModel(rng, 3), randomModel(rng, 3)}
	f, err := NewFactorial(chains, 90)
	if err != nil {
		t.Fatal(err)
	}
	obs := make([]float64, 300)
	for i := range obs {
		obs[i] = rng.Float64() * 3000
	}
	want := refFactorialDecode(f, obs)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			got, err := f.Decode(obs)
			if err != nil {
				done <- err
				return
			}
			for c := range want {
				for i := range want[c] {
					if got[c][i] != want[c][i] {
						done <- errMismatch
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = errorString("concurrent decode diverged from reference")

type errorString string

func (e errorString) Error() string { return string(e) }
