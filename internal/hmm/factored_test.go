package hmm

// The factored sweep's oracle is the dense kernel it replaced, kept here
// verbatim: denseSweep scans every predecessor of every successor through
// the flat transposed joint transition matrix that denseTransT builds. The
// laws below run the two side by side and require the same bits at every
// step: delta rows, backpointers, emitted paths and scores.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// denseTransT is the joint log-transition matrix of f's chains, flattened
// and TRANSPOSED: transT[b*nj+a] = log P(a -> b), each entry summed over
// the chains in chain order.
func denseTransT(f *Factorial) []float64 {
	nj, nc := f.jointCount(), len(f.Chains)
	transT := make([]float64, nj*nj)
	from := make([]int, nc)
	to := make([]int, nc)
	for a := 0; a < nj; a++ {
		f.jointState(a, from)
		for b := 0; b < nj; b++ {
			f.jointState(b, to)
			var lp float64
			for i, c := range f.Chains {
				lp += safeLog(c.Trans[from[i]][to[i]])
			}
			transT[b*nj+a] = lp
		}
	}
	return transT
}

// denseSweep runs one timestep of the Viterbi recursion: for each successor b
// it finds the best predecessor (strictly-greater max, so the lowest index
// wins ties, exactly like the naive kernel) and adds the emission term.
func denseSweep(p *factorialPrep, transT []float64, x float64, delta, next []float64, prevRow []int32) {
	nj := p.nj
	for b := 0; b < nj; b++ {
		row := transT[b*nj : b*nj+nj]
		d := delta[:len(row)] // bounds-check elimination for d[a]
		best, arg := math.Inf(-1), 0
		for a, tl := range row {
			if v := d[a] + tl; v > best {
				best, arg = v, a
			}
		}
		next[b] = best + p.emitLog(x, b)
		prevRow[b] = int32(arg)
	}
}

// denseStep is StreamDecoder.step on denseSweep.
func denseStep(d *StreamDecoder, transT []float64, x float64) {
	p := d.p
	nj := p.nj
	if !d.seen {
		for j := 0; j < nj; j++ {
			d.delta[j] = p.initLog[j] + p.emitLog(x, j)
		}
		d.seen = true
	} else {
		r := d.filled
		denseSweep(p, transT, x, d.delta, d.next, d.prev[r*nj:(r+1)*nj])
		d.delta, d.next = d.next, d.delta
	}
	d.filled++
}

// checkAgainstDense decodes obs on prep p in windows ending at the
// ascending indices ends (the last is len(obs)), once with the factored
// sweep and once with denseSweep on transT, in lockstep. Every delta row,
// backpointer row, emitted path and window score must match bit for bit.
// It returns the concatenated paths and the last window's score.
func checkAgainstDense(t testing.TB, name string, p *factorialPrep, transT, obs []float64, ends []int) ([][]int, float64) {
	t.Helper()
	window := 1
	for i, hi := range ends {
		lo := 0
		if i > 0 {
			lo = ends[i-1]
		}
		window = max(window, hi-lo)
	}
	got, want := newDecoder(p, window), newDecoder(p, window)
	paths := make([][]int, p.nc)
	var score float64
	for i, x := range obs {
		got.step(x)
		denseStep(want, transT, x)
		for j := range want.delta {
			if math.Float64bits(got.delta[j]) != math.Float64bits(want.delta[j]) {
				t.Fatalf("%s: step %d (x=%v): delta[%d] = %v, dense %v",
					name, i, x, j, got.delta[j], want.delta[j])
			}
		}
		if !slices.Equal(got.prev, want.prev) {
			t.Fatalf("%s: step %d (x=%v): backpointers differ from dense", name, i, x)
		}
		if !slices.Contains(ends, i+1) {
			continue
		}
		gotPaths, gotScore := got.emit()
		wantPaths, wantScore := want.emit()
		if !pathsEqual(gotPaths, wantPaths) {
			t.Fatalf("%s: window ending at %d: paths differ from dense", name, i+1)
		}
		if math.Float64bits(gotScore) != math.Float64bits(wantScore) {
			t.Fatalf("%s: window ending at %d: score %v, dense %v", name, i+1, gotScore, wantScore)
		}
		for c := range paths {
			paths[c] = append(paths[c], gotPaths[c]...)
		}
		score = gotScore
	}
	return paths, score
}

// streamEnds returns where a StreamDecoder of the given window closes its
// windows over n observations when Flush is called after index flushAt and
// at the end.
func streamEnds(n, window, flushAt int) []int {
	var ends []int
	filled := 0
	for i := 0; i < n; i++ {
		filled++
		if filled == window || i == flushAt || i == n-1 {
			ends = append(ends, i+1)
			filled = 0
		}
	}
	return ends
}

// checkFactorialAgainstDense pins f's factored decodes to the dense oracle:
// Decode (paths, and its prep's final score) over all of obs, and the
// StreamDecoder's Push/Flush output at windows 1, 3 and len(obs), each
// with a Flush after the middle observation.
func checkFactorialAgainstDense(t *testing.T, name string, f *Factorial, obs []float64) {
	t.Helper()
	p, transT := f.prepTables(), denseTransT(f)
	want, wantScore := checkAgainstDense(t, name+" decode", p, transT, obs, []int{len(obs)})
	got, err := f.Decode(obs)
	if err != nil {
		t.Fatal(err)
	}
	if !pathsEqual(got, want) {
		t.Fatalf("%s: Decode paths differ from dense", name)
	}
	if _, score := p.decode(obs); math.Float64bits(score) != math.Float64bits(wantScore) {
		t.Fatalf("%s: decode score %v, dense %v", name, score, wantScore)
	}
	mid := len(obs) / 2
	for _, window := range []int{1, 3, len(obs)} {
		ends := streamEnds(len(obs), window, mid)
		want, _ := checkAgainstDense(t, fmt.Sprintf("%s window %d", name, window), p, transT, obs, ends)
		if got := streamDecode(t, f, obs, window, mid); !pathsEqual(got, want) {
			t.Fatalf("%s: stream at window %d differs from dense", name, window)
		}
	}
}

// checkViterbiAgainstDense pins Model.Viterbi, the one-chain case, to the
// dense oracle: path and log probability bit for bit.
func checkViterbiAgainstDense(t *testing.T, name string, m *Model, obs []float64) {
	t.Helper()
	transT := denseTransT(&Factorial{Chains: []*Model{m}})
	want, wantLP := checkAgainstDense(t, name, m.viterbiPrep(), transT, obs, []int{len(obs)})
	path, lp, err := m.Viterbi(obs)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(path, want[0]) || math.Float64bits(lp) != math.Float64bits(wantLP) {
		t.Fatalf("%s: Viterbi (%v) differs from dense (%v)", name, lp, wantLP)
	}
}

// sparseModel is randomModel with about a third of the initial and
// transition probabilities set to zero (each row keeps at least one
// non-zero entry), so safeLog's -1e18 floor enters the lattice.
func sparseModel(rng *rand.Rand, k int) *Model {
	m := randomModel(rng, k)
	sparsify := func(p []float64) {
		keep := rng.Intn(len(p))
		var sum float64
		for i := range p {
			if i != keep && rng.Intn(3) == 0 {
				p[i] = 0
			}
			sum += p[i]
		}
		for i := range p {
			p[i] /= sum
		}
	}
	sparsify(m.Initial)
	for _, row := range m.Trans {
		sparsify(row)
	}
	return m
}

func mustFactorial(t testing.TB, chains []*Model, obsStd float64) *Factorial {
	t.Helper()
	f, err := NewFactorial(chains, obsStd)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// sampleFactorial draws n aggregate observations from f's chains.
func sampleFactorial(rng *rand.Rand, f *Factorial, n int) []float64 {
	obs := make([]float64, n)
	for _, c := range f.Chains {
		_, xs := sampleModel(rng, c, n)
		for i, x := range xs {
			obs[i] += x
		}
	}
	for i := range obs {
		obs[i] += rng.NormFloat64() * f.ObsStd
	}
	return obs
}

// TestFactoredSweepMatchesDense is the law that licenses the factored
// sweep: on every model shape the package serves, its decodes are the
// dense kernel's, bit for bit.
func TestFactoredSweepMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(27))

	t.Run("random-sparse", func(t *testing.T) {
		for trial := 0; trial < 24; trial++ {
			chains := make([]*Model, 1+rng.Intn(4))
			for i := range chains {
				chains[i] = sparseModel(rng, 1+rng.Intn(4))
			}
			f := mustFactorial(t, chains, 20+rng.Float64()*200)
			obs := sampleFactorial(rng, f, 1+rng.Intn(120))
			checkFactorialAgainstDense(t, fmt.Sprintf("trial %d", trial), f, obs)
		}
	})

	// Symmetric 0.95/0.05 chains tie predecessors exactly; the factored
	// sums then disagree with the dense ones in the last bit often enough
	// that skipping the certificate changes argmaxes.
	t.Run("symmetric-figure2", func(t *testing.T) {
		f, obs := symmetricFigure2Model(t, 200)
		checkFactorialAgainstDense(t, "symmetric", f, obs)
	})

	t.Run("viterbi", func(t *testing.T) {
		for trial := 0; trial < 12; trial++ {
			m := sparseModel(rng, 1+rng.Intn(5))
			_, obs := sampleModel(rng, m, 1+rng.Intn(200))
			checkViterbiAgainstDense(t, fmt.Sprintf("trial %d", trial), m, obs)
		}
		m := &Model{ // niom's sticky symmetric occupancy chain
			Initial: []float64{0.5, 0.5},
			Trans:   [][]float64{{0.92, 0.08}, {0.08, 0.92}},
			Means:   []float64{0.05, 0.75},
			Stds:    []float64{0.3, 0.45},
		}
		obs := make([]float64, 300)
		for i := range obs {
			obs[i] = float64(rng.Intn(2))
		}
		checkViterbiAgainstDense(t, "occupancy", m, obs)
	})

	// Figure 2 (five device chains and the 8-state other chain) and the
	// a3 ablation's variants (a 3-state other chain, none), with all
	// transitions possible, as trained models have them, and sparse.
	for _, other := range []int{8, 3, 0} {
		t.Run(fmt.Sprintf("figure2-other-%d", other), func(t *testing.T) {
			for _, model := range []func(*rand.Rand, int) *Model{randomModel, sparseModel} {
				var chains []*Model
				for range 5 {
					chains = append(chains, model(rng, 2))
				}
				if other > 0 {
					chains = append(chains, model(rng, other))
				}
				f := mustFactorial(t, chains, 200)
				checkFactorialAgainstDense(t, "figure2", f, sampleFactorial(rng, f, 90))
			}
		})
	}

	t.Run("fleet", func(t *testing.T) {
		f, obs := fleetFactorial(t, 97)
		checkFactorialAgainstDense(t, "fleet", f, obs)
	})

	t.Run("non-finite-observations", func(t *testing.T) {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300} {
			f := mustFactorial(t, []*Model{sparseModel(rng, 2), sparseModel(rng, 3)}, 50)
			obs := sampleFactorial(rng, f, 30)
			obs[11] = bad
			checkFactorialAgainstDense(t, fmt.Sprint(bad), f, obs)
			checkViterbiAgainstDense(t, fmt.Sprint(bad), f.Chains[1], obs)
		}
	})
}
