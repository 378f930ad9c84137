package hmm

import (
	"fmt"
	"math"

	"privmem/internal/stats"
)

// TrainConfig controls Baum-Welch training.
type TrainConfig struct {
	// States is the number of hidden states K.
	States int
	// MaxIter bounds EM iterations (default 50).
	MaxIter int
	// Tol is the relative log-likelihood improvement below which training
	// stops (default 1e-6).
	Tol float64
}

// Train learns a Gaussian HMM from a single observation sequence using
// k-means initialization followed by Baum-Welch (EM). This is the
// "must learn a model using training data" step the paper attributes to the
// FHMM NILM approach.
func Train(obs []float64, cfg TrainConfig) (*Model, error) {
	if cfg.States < 1 {
		return nil, fmt.Errorf("train: %w: states=%d", ErrBadModel, cfg.States)
	}
	if len(obs) < cfg.States*4 {
		return nil, fmt.Errorf("train: %w: %d observations for %d states",
			ErrBadModel, len(obs), cfg.States)
	}
	if cfg.MaxIter == 0 {
		cfg.MaxIter = 50
	}
	if cfg.Tol == 0 {
		cfg.Tol = 1e-6
	}
	k := cfg.States

	// Initialize emissions from k-means clusters, transitions sticky.
	centers, err := stats.KMeans1D(obs, k)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	m := &Model{
		Initial: make([]float64, k),
		Trans:   make([][]float64, k),
		Means:   centers,
		Stds:    make([]float64, k),
	}
	spread := stats.Std(obs)/float64(k) + minStd
	for s := 0; s < k; s++ {
		m.Initial[s] = 1 / float64(k)
		m.Stds[s] = spread
		m.Trans[s] = make([]float64, k)
		for r := 0; r < k; r++ {
			if r == s {
				m.Trans[s][r] = 0.9
			} else {
				m.Trans[s][r] = 0.1 / float64(k-1)
			}
		}
		if k == 1 {
			m.Trans[s][s] = 1
		}
	}

	sc := newTrainScratch(len(obs), k)
	prevLL := math.Inf(-1)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		ll, err := m.baumWelchStep(obs, sc)
		if err != nil {
			return nil, fmt.Errorf("train iteration %d: %w", iter, err)
		}
		if iter > 0 && ll-prevLL < cfg.Tol*math.Abs(prevLL) {
			break
		}
		prevLL = ll
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("train produced invalid model: %w", err)
	}
	return m, nil
}

// trainScratch is Train's working set, allocated once per call and reused
// by every EM iteration. The lattices are flat n×k arrays: row t of b holds
// step t's shifted emission probabilities at [t*k, t*k+k), and likewise for
// the scaled forward (alpha) and backward (beta) variables and the
// posteriors (gamma).
type trainScratch struct {
	k                     int
	b, alpha, beta, gamma []float64
	// shift and scales are per step: the emission log shift and the
	// forward scaling factor.
	shift, scales []float64
	// std and logStd are each state's minStd-clamped emission std and its
	// log, computed once per iteration instead of once per step.
	std, logStd []float64
	// num (k×k) and denom are the M step's expected transition counts;
	// wsum, mean and vsum its per-state emission moments.
	num, denom, wsum, mean, vsum []float64
}

func newTrainScratch(n, k int) *trainScratch {
	return &trainScratch{
		k:      k,
		b:      make([]float64, n*k),
		alpha:  make([]float64, n*k),
		beta:   make([]float64, n*k),
		gamma:  make([]float64, n*k),
		shift:  make([]float64, n),
		scales: make([]float64, n),
		std:    make([]float64, k),
		logStd: make([]float64, k),
		num:    make([]float64, k*k),
		denom:  make([]float64, k),
		wsum:   make([]float64, k),
		mean:   make([]float64, k),
		vsum:   make([]float64, k),
	}
}

// baumWelchStep runs one scaled forward-backward E step and an M step in
// sc, returning the data log-likelihood before the update. sc must come
// from newTrainScratch(len(obs), m.K()).
//
// Every value is computed by the same floating-point operations in the same
// order as the textbook per-sample form kept in train_test.go: products
// group left to right as written there, and where a loop nest is swapped
// for locality (the M step walks the lattice once, time outermost), each
// accumulator still receives its terms in ascending time order. Training
// is therefore bit-identical to that form (pinned by
// TestBaumWelchStepMatchesReference).
func (m *Model) baumWelchStep(obs []float64, sc *trainScratch) (float64, error) {
	k, n := sc.k, len(obs)
	for s := 0; s < k; s++ {
		std := m.Stds[s]
		if std < minStd {
			std = minStd
		}
		sc.std[s] = std
		sc.logStd[s] = math.Log(std)
	}
	// Emission probabilities, shifted per step so the best state's emission
	// is exp(0): a far-outlier observation would otherwise underflow every
	// state to zero. The shift is a per-step constant, so it cancels in the
	// posteriors and is added back to the log-likelihood. Each row holds
	// the log densities (logGauss's expression) until the shift is known.
	for t, x := range obs {
		row := sc.b[t*k : t*k+k]
		shift := math.Inf(-1)
		for s := range row {
			d := (x - m.Means[s]) / sc.std[s]
			row[s] = -0.5*d*d - sc.logStd[s] - halfLog2Pi
			shift = max(shift, row[s])
		}
		for s := range row {
			row[s] = math.Exp(row[s] - shift)
		}
		sc.shift[t] = shift
	}
	// Scaled forward.
	for t := 0; t < n; t++ {
		row, bt := sc.alpha[t*k:t*k+k], sc.b[t*k:t*k+k]
		for s := range row {
			var p float64
			if t == 0 {
				p = m.Initial[s]
			} else {
				prev := sc.alpha[(t-1)*k : t*k]
				for r, a := range prev {
					p += a * m.Trans[r][s]
				}
			}
			row[s] = p * bt[s]
		}
		var scale float64
		for _, v := range row {
			scale += v
		}
		if scale <= 0 {
			return 0, fmt.Errorf("%w: zero forward scale at t=%d", ErrBadModel, t)
		}
		for s := range row {
			row[s] /= scale
		}
		sc.scales[t] = scale
	}
	// Scaled backward.
	last := sc.beta[(n-1)*k:]
	for s := range last {
		last[s] = 1
	}
	for t := n - 2; t >= 0; t-- {
		row := sc.beta[t*k : t*k+k]
		bn, betaN := sc.b[(t+1)*k:(t+2)*k], sc.beta[(t+1)*k:(t+2)*k]
		for s := range row {
			trs := m.Trans[s]
			var p float64
			for r := range trs {
				p += trs[r] * bn[r] * betaN[r]
			}
			row[s] = p / sc.scales[t+1]
		}
	}
	// Posteriors.
	for t := 0; t < n; t++ {
		row := sc.gamma[t*k : t*k+k]
		at, bt := sc.alpha[t*k:t*k+k], sc.beta[t*k:t*k+k]
		var norm float64
		for s := range row {
			row[s] = at[s] * bt[s]
			norm += row[s]
		}
		if norm > 0 {
			for s := range row {
				row[s] /= norm
			}
		}
	}
	// M step: expected transitions, one pass over the lattice. m.Trans is
	// rewritten only after the pass, so every xi reads the old matrix.
	copy(m.Initial, sc.gamma[:k])
	clear(sc.num)
	clear(sc.denom)
	for t := 0; t < n-1; t++ {
		at := sc.alpha[t*k : t*k+k]
		bn, betaN := sc.b[(t+1)*k:(t+2)*k], sc.beta[(t+1)*k:(t+2)*k]
		scale := sc.scales[t+1]
		for s, a := range at {
			trs, num := m.Trans[s], sc.num[s*k:s*k+k]
			for r := range trs {
				xi := a * trs[r] * bn[r] * betaN[r] / scale
				num[r] += xi
				sc.denom[s] += xi
			}
		}
	}
	for s := 0; s < k; s++ {
		if denom := sc.denom[s]; denom > 0 {
			for r := 0; r < k; r++ {
				m.Trans[s][r] = sc.num[s*k+r] / denom
			}
		}
	}
	// Emission moments: weighted means, then weighted variances about them.
	clear(sc.wsum)
	clear(sc.mean)
	clear(sc.vsum)
	for t, x := range obs {
		for s, g := range sc.gamma[t*k : t*k+k] {
			sc.wsum[s] += g
			sc.mean[s] += g * x
		}
	}
	for s := 0; s < k; s++ {
		if sc.wsum[s] > 0 {
			sc.mean[s] /= sc.wsum[s]
		}
	}
	for t, x := range obs {
		for s, g := range sc.gamma[t*k : t*k+k] {
			d := x - sc.mean[s]
			sc.vsum[s] += g * d * d
		}
	}
	for s := 0; s < k; s++ {
		if wsum := sc.wsum[s]; wsum > 0 {
			m.Means[s] = sc.mean[s]
			m.Stds[s] = max(math.Sqrt(sc.vsum[s]/wsum), minStd)
		}
	}
	var ll float64
	for t, scale := range sc.scales {
		ll += math.Log(scale) + sc.shift[t]
	}
	return ll, nil
}
