// Package hmm implements Gaussian-emission hidden Markov models and the
// factorial composition used by the conventional NILM baseline the paper
// compares PowerPlay against (Figure 2). It provides Viterbi decoding,
// forward-algorithm likelihoods, Baum-Welch (EM) training, and joint
// decoding of several independent chains whose emissions sum (a factorial
// HMM over a product state space).
//
// Every Viterbi decode runs through one engine: a factorialPrep (the
// model's flattened tables), its sweep, and the StreamDecoder's
// per-observation step and backtrack. Factorial.Decode is one decoder
// window covering all observations, Model.Viterbi is the same on a
// one-chain prep, and the fleet's incremental decode emits every window.
package hmm

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadModel indicates inconsistent HMM parameters.
var ErrBadModel = errors.New("hmm: invalid model")

// minStd keeps Gaussian emissions proper when training collapses a state.
const minStd = 1e-3

// Model is a hidden Markov model with one-dimensional Gaussian emissions.
type Model struct {
	// Initial holds the initial state distribution (length K).
	Initial []float64
	// Trans holds row-stochastic transition probabilities (K x K).
	Trans [][]float64
	// Means and Stds parameterize each state's Gaussian emission.
	Means []float64
	// Stds must be positive.
	Stds []float64
}

// K returns the number of hidden states.
func (m *Model) K() int { return len(m.Means) }

// Validate checks dimensional consistency and stochasticity.
func (m *Model) Validate() error {
	k := m.K()
	if k == 0 {
		return fmt.Errorf("%w: no states", ErrBadModel)
	}
	if len(m.Initial) != k || len(m.Stds) != k || len(m.Trans) != k {
		return fmt.Errorf("%w: dimension mismatch", ErrBadModel)
	}
	if err := checkDist(m.Initial); err != nil {
		return fmt.Errorf("%w: initial: %v", ErrBadModel, err)
	}
	for i, row := range m.Trans {
		if len(row) != k {
			return fmt.Errorf("%w: trans row %d has %d entries", ErrBadModel, i, len(row))
		}
		if err := checkDist(row); err != nil {
			return fmt.Errorf("%w: trans row %d: %v", ErrBadModel, i, err)
		}
	}
	for i, s := range m.Stds {
		if s <= 0 || math.IsNaN(s) {
			return fmt.Errorf("%w: std[%d] = %v", ErrBadModel, i, s)
		}
	}
	return nil
}

func checkDist(p []float64) error {
	var sum float64
	for _, v := range p {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("negative or NaN probability %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("probabilities sum to %v", sum)
	}
	return nil
}

// halfLog2Pi is the Gaussian log-density normalization constant, hoisted so
// the decode kernels do not recompute math.Log(2*pi) per sample. Computed
// with the exact expression logGauss historically inlined, so hoisting
// changes no bits.
var halfLog2Pi = 0.5 * math.Log(2*math.Pi)

// logGauss returns the log density of x under N(mean, std^2).
func logGauss(x, mean, std float64) float64 {
	if std < minStd {
		std = minStd
	}
	d := (x - mean) / std
	return -0.5*d*d - math.Log(std) - halfLog2Pi
}

// safeLog returns log(x) with -Inf guarded to a very small value so Viterbi
// lattices stay comparable.
func safeLog(x float64) float64 {
	if x <= 0 {
		return -1e18
	}
	return math.Log(x)
}

// Viterbi returns the most likely hidden state sequence for obs and its log
// probability. It is Factorial.Decode's engine on a one-chain prep (see
// viterbiPrep), so the two share one recursion and one backtrack.
func (m *Model) Viterbi(obs []float64) ([]int, float64, error) {
	if err := m.Validate(); err != nil {
		return nil, 0, fmt.Errorf("viterbi: %w", err)
	}
	if len(obs) == 0 {
		return nil, 0, nil
	}
	paths, logp := m.viterbiPrep().decode(obs)
	return paths[0], logp, nil
}

// viterbiPrep builds the decode tables of the model alone: each state's
// emission is its own minStd-clamped Gaussian (no observation noise is
// added, unlike a factorial's joint state), and the initial and transition
// log probabilities are safeLog of the model's, so every lattice entry is
// the logGauss and safeLog arithmetic of the textbook recursion.
func (m *Model) viterbiPrep() *factorialPrep {
	k := m.K()
	p := &factorialPrep{
		nj:      k,
		nc:      1,
		sumMean: m.Means,
		emitStd: make([]float64, k),
		logStd:  make([]float64, k),
		initLog: make([]float64, k),
		transT:  make([]float64, k*k),
		states:  make([]int32, k),
	}
	for s := 0; s < k; s++ {
		std := max(m.Stds[s], minStd)
		p.emitStd[s] = std
		p.logStd[s] = math.Log(std)
		p.initLog[s] = safeLog(m.Initial[s])
		p.states[s] = int32(s)
		for r := 0; r < k; r++ {
			p.transT[s*k+r] = safeLog(m.Trans[r][s])
		}
	}
	return p
}

// LogLikelihood returns the log probability of obs under the model using
// the scaled forward algorithm.
//
//lint:allow deadexport the forward-algorithm oracle of TestViterbiPathBoundedByLikelihood
func (m *Model) LogLikelihood(obs []float64) (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, fmt.Errorf("log likelihood: %w", err)
	}
	k := m.K()
	alpha := make([]float64, k)
	var ll float64
	lg := make([]float64, k)
	for t, x := range obs {
		// Shift emissions per step so outliers cannot underflow all states.
		shift := math.Inf(-1)
		for s := 0; s < k; s++ {
			lg[s] = logGauss(x, m.Means[s], m.Stds[s])
			shift = max(shift, lg[s])
		}
		next := make([]float64, k)
		for s := 0; s < k; s++ {
			var p float64
			if t == 0 {
				p = m.Initial[s]
			} else {
				for r := 0; r < k; r++ {
					p += alpha[r] * m.Trans[r][s]
				}
			}
			next[s] = p * math.Exp(lg[s]-shift)
		}
		var scale float64
		for _, v := range next {
			scale += v
		}
		if scale <= 0 {
			return math.Inf(-1), nil
		}
		for s := range next {
			next[s] /= scale
		}
		ll += math.Log(scale) + shift
		alpha = next
	}
	return ll, nil
}
