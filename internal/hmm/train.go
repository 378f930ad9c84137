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

	prevLL := math.Inf(-1)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		ll, err := m.baumWelchStep(obs)
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

// baumWelchStep runs one scaled forward-backward E step and an M step,
// returning the data log-likelihood before the update.
func (m *Model) baumWelchStep(obs []float64) (float64, error) {
	k, n := m.K(), len(obs)
	// Emission probabilities, shifted per step so the best state's emission
	// is exp(0): a far-outlier observation would otherwise underflow every
	// state to zero. The shift is a per-step constant, so it cancels in the
	// posteriors and is added back to the log-likelihood.
	b := make([][]float64, n)
	shift := make([]float64, n)
	for t, x := range obs {
		b[t] = make([]float64, k)
		lg := make([]float64, k)
		shift[t] = math.Inf(-1)
		for s := 0; s < k; s++ {
			lg[s] = logGauss(x, m.Means[s], m.Stds[s])
			shift[t] = max(shift[t], lg[s])
		}
		for s := 0; s < k; s++ {
			b[t][s] = math.Exp(lg[s] - shift[t])
		}
	}
	// Scaled forward.
	alpha := make([][]float64, n)
	scales := make([]float64, n)
	for t := 0; t < n; t++ {
		alpha[t] = make([]float64, k)
		for s := 0; s < k; s++ {
			var p float64
			if t == 0 {
				p = m.Initial[s]
			} else {
				for r := 0; r < k; r++ {
					p += alpha[t-1][r] * m.Trans[r][s]
				}
			}
			alpha[t][s] = p * b[t][s]
		}
		for _, v := range alpha[t] {
			scales[t] += v
		}
		if scales[t] <= 0 {
			return 0, fmt.Errorf("%w: zero forward scale at t=%d", ErrBadModel, t)
		}
		for s := range alpha[t] {
			alpha[t][s] /= scales[t]
		}
	}
	// Scaled backward.
	beta := make([][]float64, n)
	beta[n-1] = make([]float64, k)
	for s := range beta[n-1] {
		beta[n-1][s] = 1
	}
	for t := n - 2; t >= 0; t-- {
		beta[t] = make([]float64, k)
		for s := 0; s < k; s++ {
			var p float64
			for r := 0; r < k; r++ {
				p += m.Trans[s][r] * b[t+1][r] * beta[t+1][r]
			}
			beta[t][s] = p / scales[t+1]
		}
	}
	// Posteriors.
	gamma := make([][]float64, n)
	for t := 0; t < n; t++ {
		gamma[t] = make([]float64, k)
		var norm float64
		for s := 0; s < k; s++ {
			gamma[t][s] = alpha[t][s] * beta[t][s]
			norm += gamma[t][s]
		}
		if norm > 0 {
			for s := range gamma[t] {
				gamma[t][s] /= norm
			}
		}
	}
	// M step.
	for s := 0; s < k; s++ {
		m.Initial[s] = gamma[0][s]
	}
	for s := 0; s < k; s++ {
		var denom float64
		num := make([]float64, k)
		for t := 0; t < n-1; t++ {
			for r := 0; r < k; r++ {
				xi := alpha[t][s] * m.Trans[s][r] * b[t+1][r] * beta[t+1][r] / scales[t+1]
				num[r] += xi
				denom += xi
			}
		}
		if denom > 0 {
			for r := 0; r < k; r++ {
				m.Trans[s][r] = num[r] / denom
			}
		}
	}
	for s := 0; s < k; s++ {
		var wsum, mean float64
		for t := 0; t < n; t++ {
			wsum += gamma[t][s]
			mean += gamma[t][s] * obs[t]
		}
		if wsum > 0 {
			mean /= wsum
			var vsum float64
			for t := 0; t < n; t++ {
				d := obs[t] - mean
				vsum += gamma[t][s] * d * d
			}
			m.Means[s] = mean
			m.Stds[s] = max(math.Sqrt(vsum/wsum), minStd)
		}
	}
	var ll float64
	for t, sc := range scales {
		ll += math.Log(sc) + shift[t]
	}
	return ll, nil
}
