package hmm

import (
	"fmt"
	"math"
	"sync"
)

// maxJointStates bounds the factorial product state space nj. A decode
// keeps a window × nj backpointer lattice and pays O(nj · Σk) per step, so
// beyond this bound exact joint Viterbi becomes intractable and callers must
// reduce chains or states per chain.
const maxJointStates = 1 << 16

// Factorial is a factorial HMM: several independent hidden chains whose
// Gaussian emissions sum to the single observed value (a home's aggregate
// power). Decoding is exact Viterbi over the product state space, the
// textbook construction used by FHMM energy disaggregation [19].
//
// The chains and observation noise must not be modified after NewFactorial:
// Decode caches each chain's log-transition table and the per-joint-state
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
	// decode).
	prepOnce sync.Once
	prep     *factorialPrep
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

	// states[j*nc+i] is chain i's state inside joint state j.
	states []int32

	// The joint transition log T(a, b) = log P(a -> b) is the sum of the
	// chains' entries and is never stored: an nj × nj table would cost nj²
	// logarithms and 512 KB at Figure 2's 256 joint states. logTrans holds
	// the chains' k×k tables end to end, each successor-major (chain i's
	// entry for r -> s at chains[i].logTrans[s*k+r]), and rowOff[j*nc+i] is
	// where chain i's row for successor state states[j*nc+i] starts in
	// logTrans.
	chains   []chainTable
	logTrans []float64
	rowOff   []int32

	// tol and posLog size the certificate's rounding margin (see sweep).
	tol    float64
	posLog float64
}

// chainTable is one chain of the joint lattice: k states at joint-index
// stride `stride` (joint state j holds chain state j/stride%k), and its
// successor-major log-transition table, a window of the prep's logTrans.
type chainTable struct {
	k, stride int
	logTrans  []float64
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
	p := newPrep(nj, nc)
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
	p.initTrans(f.Chains)
	return p
}

// newPrep allocates the tables of an nj-state, nc-chain lattice: one float
// slab for the per-joint-state rows and one index slab for states and
// rowOff.
func newPrep(nj, nc int) *factorialPrep {
	fs := make([]float64, 4*nj)
	is := make([]int32, 2*nj*nc)
	return &factorialPrep{
		nj:      nj,
		nc:      nc,
		sumMean: fs[0:nj:nj],
		emitStd: fs[nj : 2*nj : 2*nj],
		logStd:  fs[2*nj : 3*nj : 3*nj],
		initLog: fs[3*nj:],
		states:  is[: nj*nc : nj*nc],
		rowOff:  is[nj*nc:],
	}
}

// initTrans builds the chains' log-transition tables, the successor row
// offsets and the certificate constants from models, the chains in joint
// index order (chain 0 varies fastest). p.states must be filled.
func (p *factorialPrep) initTrans(models []*Model) {
	n := 0
	for _, m := range models {
		n += m.K() * m.K()
	}
	p.logTrans = make([]float64, 0, n)
	p.chains = make([]chainTable, len(models))
	stride, pos := 1, 0.0
	for i, m := range models {
		k, off := m.K(), len(p.logTrans)
		for s := 0; s < k; s++ {
			for r := 0; r < k; r++ {
				l := safeLog(m.Trans[r][s])
				p.logTrans = append(p.logTrans, l)
				pos = max(pos, l)
			}
		}
		p.chains[i] = chainTable{k: k, stride: stride, logTrans: p.logTrans[off:]}
		stride *= k
		for e := i; e < len(p.states); e += p.nc {
			p.rowOff[e] = int32(off + int(p.states[e])*k)
		}
	}
	p.tol = float64(p.nc+1) * 0x1p-50
	p.posLog = 2 * float64(p.nc) * pos
}

// emitLog returns the emission log density of x under joint state j: the
// logGauss expression with the per-state invariant log terms (log std and
// the 0.5*log(2*pi) constant) hoisted into prep. The subtraction order is
// logGauss's exactly, so values match the naive kernel bit for bit.
func (p *factorialPrep) emitLog(x float64, j int) float64 {
	d := (x - p.sumMean[j]) / p.emitStd[j]
	return -0.5*d*d - p.logStd[j] - halfLog2Pi
}

// trans returns the joint transition log T(a, b) = log P(a -> b), summed
// over the chains in chain order from zero, ((0 + L0) + L1) + …, which is
// the accumulation order of the naive kernel's joint table.
func (p *factorialPrep) trans(a, b int) float64 {
	nc := p.nc
	sa, rb := p.states[a*nc:a*nc+nc], p.rowOff[b*nc:b*nc+nc]
	var t float64
	for i, r := range rb {
		t += p.logTrans[int(r)+int(sa[i])]
	}
	return t
}

// scan is the dense max over predecessors for successor b: delta[a] +
// T(a, b) for every a, strictly-greater comparison, so the lowest index
// wins ties (and an all-NaN or all -Inf row yields -Inf at index 0).
func (p *factorialPrep) scan(delta []float64, b int) (float64, int) {
	best, arg := math.Inf(-1), 0
	for a, v := range delta {
		if v += p.trans(a, b); v > best {
			best, arg = v, a
		}
	}
	return best, arg
}

// top2 is one elimination stage's lattice. Entry e fixes the successor
// states of the chains eliminated so far and the predecessor states of the
// rest; best[e] is the largest partial sum over the predecessors consistent
// with e, arg[e] is that predecessor's full joint index, and second[e] is
// the largest partial sum over every other consistent predecessor.
type top2 struct {
	best, second []float64
	arg          []int32
}

// sweepScratch is one decoder's working set for sweep: the elimination's
// two alternating lattices, and the second-best (-Inf) and argument
// (identity) rows that stand beside the delta row before the first stage.
type sweepScratch struct {
	rows   [2]top2
	negInf []float64
	ident  []int32
}

// newSweepScratch carves the scratch of an nj-state lattice out of the
// float and index slabs fs (5·nj entries) and is (3·nj entries).
func newSweepScratch(nj int, fs []float64, is []int32) sweepScratch {
	f := func(i int) []float64 { return fs[i*nj : (i+1)*nj : (i+1)*nj] }
	x := func(i int) []int32 { return is[i*nj : (i+1)*nj : (i+1)*nj] }
	sc := sweepScratch{
		rows:   [2]top2{{f(0), f(1), x(0)}, {f(2), f(3), x(1)}},
		negInf: f(4),
		ident:  x(2),
	}
	for j := range sc.ident {
		sc.negInf[j] = math.Inf(-1)
		sc.ident[j] = int32(j)
	}
	return sc
}

// eliminate maximizes out chain c's predecessor state: out[e'] takes, over
// the k entries e of in that differ from e' only in c's slot (predecessor
// r there, successor s in e'), the top two of in.best[e] + L(r -> s) and
// in.second[e] + L(r -> s). Rounding is monotone, so the carried values are
// exactly the rounded partial sums of the winning and the runner-up
// predecessors.
func (c *chainTable) eliminate(in, out *top2) {
	k, stride := c.k, c.stride
	n := len(out.best)
	ib, is, ia := in.best[:n], in.second[:n], in.arg[:n]
	ob, os, oa := out.best[:n], out.second[:n], out.arg[:n]
	for base := 0; base < n; base += k * stride {
		for s := 0; s < k; s++ {
			col := c.logTrans[s*k : s*k+k]
			o := base + s*stride
			for lo := 0; lo < stride; lo++ {
				i := base + lo
				l := col[0]
				best, second, arg := ib[i]+l, is[i]+l, ia[i]
				for _, l := range col[1:] {
					i += stride
					best, second, arg = top2of(best, second, arg, ib[i]+l, is[i]+l, ia[i])
				}
				ob[o+lo], os[o+lo], oa[o+lo] = best, second, arg
			}
		}
	}
}

// top2of merges the top two of two disjoint predecessor sets, the first
// winning ties.
func top2of(b0, s0 float64, a0 int32, b1, s1 float64, a1 int32) (float64, float64, int32) {
	if b1 > b0 {
		return b1, max(b0, s1), a1
	}
	return b0, max(s0, b1), a0
}

// sweep runs one timestep of the Viterbi recursion: for each successor b
// it finds the dense best predecessor, argmax_a delta[a] + T(a, b) with the
// lowest index winning ties, and adds the emission term.
//
// The max is taken one chain at a time (the structured Viterbi of
// Ghahramani and Jordan's factorial HMM): O(nj · Σk) instead of O(nj²).
// Its sums associate as F(a) = ((delta[a] + L0) + L1) + …, while the dense
// value is D(a) = delta[a] + (((0 + L0) + L1) + …), so the two can differ
// in the last bits. A certificate recovers the dense bits: with a* the
// factored winner of b, F2 the largest F over every other predecessor, and
// W = D(a*) summed in the dense order, a* is the strict dense argmax and W
// the dense max whenever
//
//	W - F2 > tol · (|dmax| + 2·nc·P + |W|),  tol = (nc+1)·2^-50,
//
// where dmax = max_a delta[a] and P = max(0, largest chain log-transition).
// Proof: F(a) and D(a) are each a recursive sum of the same nc+1 terms, so
// each lies within γ·S(a) of the exact sum, with γ = nc·u/(1-nc·u),
// u = 2^-53 and S(a) = |delta[a]| + Σ|L_i|. Take a ≠ a* with D(a) ≥ W. Its
// exact sum is then ≥ W - γS(a), and with every L_i ≤ P and delta[a] ≤ dmax
// that gives S(a) ≤ (2(|dmax| + |W|) + 3·nc·P) / (1 - 2γ). So
// D(a) ≤ F(a) + 2γS(a) ≤ F2 + 2γS(a) < W, a contradiction. The margin
// needs 4γ/(1-2γ) ≈ 4·nc·u; tol is twice that, which absorbs the rounding
// of the test itself. The bound is per successor, so it stays sound beside
// safeLog's -1e18 floor: a floored predecessor only competes when W itself
// is that far down, and then the margin is that large too. Where the
// certificate fails (exact or near ties) b is rescanned densely, and so is
// every b when the delta row holds a NaN or an infinity.
func (p *factorialPrep) sweep(x float64, delta, next []float64, prevRow []int32, sc *sweepScratch) {
	dmax, sum := math.Inf(-1), 0.0
	for _, v := range delta {
		sum += v
		if v > dmax {
			dmax = v
		}
	}
	if sum-sum != 0 { // a NaN or infinite entry, or a sum past the float range
		for b := range next {
			best, arg := p.scan(delta, b)
			next[b] = best + p.emitLog(x, b)
			prevRow[b] = int32(arg)
		}
		return
	}
	in := &top2{best: delta, second: sc.negInf, arg: sc.ident}
	for i := range p.chains {
		out := &sc.rows[i&1]
		p.chains[i].eliminate(in, out)
		in = out
	}
	second, args := in.second[:len(next)], in.arg[:len(next)]
	tol, scale := p.tol, math.Abs(dmax)+p.posLog
	for b := range next {
		a := int(args[b])
		w := delta[a] + p.trans(a, b)
		if !(w-second[b] > tol*(scale+math.Abs(w))) {
			w, a = p.scan(delta, b)
		}
		next[b] = w + p.emitLog(x, b)
		prevRow[b] = int32(a)
	}
}

// Decode returns, for each chain, its most likely state sequence given the
// aggregate observations, via exact Viterbi over the joint state space: one
// StreamDecoder window that covers all of obs.
//
// The kernel is profile-shaped but bit-identical to the textbook
// formulation: model tables are cached across calls (buildPrep), the
// transition matrix is flat and transposed for contiguous predecessor
// scans, and Gaussian log terms are hoisted out of the inner loop. Decode
// is safe for concurrent use; callers with long traces decode independent
// chunks concurrently (see nilm.FHMM.Disaggregate).
func (f *Factorial) Decode(obs []float64) ([][]int, error) {
	if len(obs) == 0 {
		return make([][]int, len(f.Chains)), nil
	}
	paths, _ := f.prepTables().decode(obs)
	return paths, nil
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
