package hmm

import (
	"fmt"
	"math"
	"sync"
)

// maxJointStates bounds the factorial product state space. Beyond this the
// exact joint Viterbi becomes intractable and callers must reduce chains or
// states per chain.
const maxJointStates = 1 << 16

// Factorial is a factorial HMM: several independent hidden chains whose
// Gaussian emissions sum to the single observed value (a home's aggregate
// power). Decoding is exact Viterbi over the product state space, the
// textbook construction used by FHMM energy disaggregation [19].
//
// The chains and observation noise must not be modified after NewFactorial:
// Decode caches the flattened joint transition matrix and per-joint-state
// emission tables on first use (the standard FHMM precomputation), so later
// parameter edits would be silently ignored.
type Factorial struct {
	// Chains are the per-device models.
	Chains []*Model
	// ObsStd is the additional observation noise of the aggregate signal
	// (unmodeled loads, meter noise).
	ObsStd float64

	// prep is the decode kernel's precomputed state, built once on first
	// Decode (not at construction: callers may build models they never
	// decode, and the joint transition matrix is the dominant allocation).
	prepOnce sync.Once
	prep     *factorialPrep

	// scratch recycles per-Decode working buffers (delta/next rows and the
	// emission row) across calls and chunks.
	scratch sync.Pool
}

// factorialPrep holds everything about the decode lattice that depends only
// on the model, never on the observations. Building it per Decode call — as
// the naive kernel did — costs O(nj^2 * nc) logarithms per call, which
// dominates short-chunk decoding.
type factorialPrep struct {
	nj int // joint state count
	nc int // chain count

	// Per joint state j: the summed emission mean, the (minStd-clamped)
	// combined emission std, its precomputed log, and the joint initial
	// log probability.
	sumMean []float64
	emitStd []float64
	logStd  []float64
	initLog []float64

	// transT is the joint log-transition matrix, flattened and TRANSPOSED:
	// transT[b*nj+a] = log P(a -> b). The Viterbi inner loop scans all
	// predecessors a for a fixed successor b, so the transposed layout makes
	// that scan contiguous (the row-major [a][b] layout strides nj*8 bytes
	// per step and thrashes the cache).
	transT []float64

	// states[j*nc+i] is chain i's state inside joint state j.
	states []int32
}

// NewFactorial validates the chains and returns a Factorial ready to decode.
func NewFactorial(chains []*Model, obsStd float64) (*Factorial, error) {
	if len(chains) == 0 {
		return nil, fmt.Errorf("factorial: %w: no chains", ErrBadModel)
	}
	if obsStd <= 0 {
		return nil, fmt.Errorf("factorial: %w: obs std %v", ErrBadModel, obsStd)
	}
	total := 1
	for i, c := range chains {
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("factorial chain %d: %w", i, err)
		}
		total *= c.K()
		if total > maxJointStates {
			return nil, fmt.Errorf("factorial: %w: product state space exceeds %d",
				ErrBadModel, maxJointStates)
		}
	}
	return &Factorial{Chains: chains, ObsStd: obsStd}, nil
}

// jointState decodes flat joint index j into per-chain states.
func (f *Factorial) jointState(j int, out []int) {
	for i := range f.Chains {
		k := f.Chains[i].K()
		out[i] = j % k
		j /= k
	}
}

// jointCount returns the product state space size.
func (f *Factorial) jointCount() int {
	total := 1
	for _, c := range f.Chains {
		total *= c.K()
	}
	return total
}

// buildPrep computes the model-dependent decode tables. The arithmetic
// mirrors the naive kernel exactly — same accumulation order per entry — so
// cached decoding is bit-identical to rebuilding the tables per call.
func (f *Factorial) buildPrep() *factorialPrep {
	nj, nc := f.jointCount(), len(f.Chains)
	p := &factorialPrep{
		nj:      nj,
		nc:      nc,
		sumMean: make([]float64, nj),
		emitStd: make([]float64, nj),
		logStd:  make([]float64, nj),
		initLog: make([]float64, nj),
		transT:  make([]float64, nj*nj),
		states:  make([]int32, nj*nc),
	}
	states := make([]int, nc)
	for j := 0; j < nj; j++ {
		f.jointState(j, states)
		variance := f.ObsStd * f.ObsStd
		var lp float64
		for i, c := range f.Chains {
			s := states[i]
			p.states[j*nc+i] = int32(s)
			p.sumMean[j] += c.Means[s]
			variance += c.Stds[s] * c.Stds[s]
			lp += safeLog(c.Initial[s])
		}
		std := math.Sqrt(variance)
		if std < minStd {
			std = minStd
		}
		p.emitStd[j] = std
		p.logStd[j] = math.Log(std)
		p.initLog[j] = lp
	}
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
			p.transT[b*nj+a] = lp
		}
	}
	return p
}

// emitLog returns the emission log density of x under joint state j: the
// logGauss expression with the per-state invariant log terms (log std and
// the 0.5*log(2*pi) constant) hoisted into prep. The subtraction order is
// logGauss's exactly, so values match the naive kernel bit for bit.
func (p *factorialPrep) emitLog(x float64, j int) float64 {
	d := (x - p.sumMean[j]) / p.emitStd[j]
	return -0.5*d*d - p.logStd[j] - halfLog2Pi
}

// decodeScratch holds the per-call working set reused across timesteps and
// across Decode calls (via the Factorial's pool).
type decodeScratch struct {
	delta []float64
	next  []float64
}

// getScratch checks a decodeScratch with rows of at least nj out of the
// pool, allocating fresh rows when the pooled one is too small.
func (f *Factorial) getScratch(nj int) *decodeScratch {
	sc, _ := f.scratch.Get().(*decodeScratch)
	if sc == nil || len(sc.delta) < nj {
		sc = &decodeScratch{
			delta: make([]float64, nj),
			next:  make([]float64, nj),
		}
	}
	return sc //lint:allow poolescape borrow accessor: every caller pairs this with defer f.scratch.Put(sc)
}

// assemblePaths backtracks the flat backpointer lattice from the final
// delta row's argmax (strictly-greater, lowest index wins) and splits the
// joint path per chain.
func assemblePaths(p *factorialPrep, delta []float64, prev []int32, n int) [][]int {
	nj, nc := p.nj, p.nc
	best, arg := math.Inf(-1), 0
	for j := 0; j < nj; j++ {
		if delta[j] > best {
			best, arg = delta[j], j
		}
	}
	out := make([][]int, nc)
	for i := range out {
		out[i] = make([]int, n)
	}
	j := arg
	for t := n - 1; t >= 0; t-- {
		for i := range out {
			out[i][t] = int(p.states[j*nc+i])
		}
		if t > 0 {
			j = int(prev[t*nj+j])
		}
	}
	return out
}

// sweep runs one timestep of the Viterbi recursion: for each successor b
// it finds the best predecessor (strictly-greater max, so the lowest index
// wins ties, exactly like the naive kernel) and adds the emission term.
func (p *factorialPrep) sweep(x float64, delta, next []float64, prevRow []int32) {
	nj := p.nj
	for b := 0; b < nj; b++ {
		row := p.transT[b*nj : b*nj+nj]
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

// Decode returns, for each chain, its most likely state sequence given the
// aggregate observations, via exact Viterbi over the joint state space.
//
// The kernel is profile-shaped but bit-identical to the textbook
// formulation: model tables are cached across calls (buildPrep), the
// transition matrix is flat and transposed for contiguous predecessor
// scans, Gaussian log terms are hoisted out of the inner loop, and scratch
// rows are pooled. Decode is safe for concurrent use; callers with long traces
// decode independent chunks concurrently (see nilm.FHMM.Disaggregate).
func (f *Factorial) Decode(obs []float64) ([][]int, error) {
	nc := len(f.Chains)
	if len(obs) == 0 {
		return make([][]int, nc), nil
	}
	p := f.prepTables()
	nj := p.nj

	sc := f.getScratch(nj)
	defer f.scratch.Put(sc)
	delta, next := sc.delta[:nj], sc.next[:nj]

	// prev is one flat backpointer lattice instead of a per-timestep
	// allocation; row t starts at t*nj. Row 0 is never read.
	prev := make([]int32, len(obs)*nj)

	for j := 0; j < nj; j++ {
		delta[j] = p.initLog[j] + p.emitLog(obs[0], j)
	}

	for t := 1; t < len(obs); t++ {
		p.sweep(obs[t], delta, next, prev[t*nj:(t+1)*nj])
		delta, next = next, delta
	}

	return assemblePaths(p, delta, prev, len(obs)), nil
}

// InferPower decodes the aggregate and returns each chain's inferred power
// trace (the emission mean of its decoded state at each step).
func (f *Factorial) InferPower(obs []float64) ([][]float64, error) {
	paths, err := f.Decode(obs)
	if err != nil {
		return nil, fmt.Errorf("infer power: %w", err)
	}
	out := make([][]float64, len(f.Chains))
	for i, c := range f.Chains {
		out[i] = make([]float64, len(obs))
		for t, s := range paths[i] {
			out[i][t] = c.Means[s]
		}
	}
	return out, nil
}
