package hmm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceBaumWelchStep is the per-sample Baum-Welch step baumWelchStep
// replaced, kept verbatim as the exactness oracle: fresh per-step slices in
// every iteration, logGauss per (step, state), and the M step's loops
// nested state-outermost.
func referenceBaumWelchStep(m *Model, obs []float64) (float64, error) {
	k, n := m.K(), len(obs)
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

func cloneModel(m *Model) *Model {
	c := &Model{
		Initial: append([]float64(nil), m.Initial...),
		Trans:   make([][]float64, len(m.Trans)),
		Means:   append([]float64(nil), m.Means...),
		Stds:    append([]float64(nil), m.Stds...),
	}
	for i, row := range m.Trans {
		c.Trans[i] = append([]float64(nil), row...)
	}
	return c
}

// sameBits fails the test unless got and want hold identical float64 bit
// patterns.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// TestBaumWelchStepMatchesReference pins the lattice-reusing Baum-Welch
// step to the per-sample reference bit for bit: the log-likelihood and
// every parameter after each of 25 EM iterations, one scratch reused
// throughout, for k = 1…8 at several sequence lengths. Each case also
// carries a state whose std starts below minStd and a far outlier whose
// emission underflows every state without the per-step shift; the
// two-cluster case drives a state's fitted std onto the minStd floor.
func TestBaumWelchStepMatchesReference(t *testing.T) {
	const iters = 25
	rng := rand.New(rand.NewSource(22))
	type tc struct {
		name  string
		model *Model
		obs   []float64
	}
	var cases []tc
	for k := 1; k <= 8; k++ {
		for _, n := range []int{4 * k, 97, 600} {
			m := randomModel(rng, k)
			_, obs := sampleModel(rng, m, n)
			m.Stds[k-1] = minStd / 100
			obs[n/2] = 1e7
			cases = append(cases, tc{fmt.Sprintf("k%d_n%d", k, n), m, obs})
		}
	}
	// Two exact clusters: the state that captures the constant block has
	// zero weighted variance and is clamped to minStd.
	flat := make([]float64, 300)
	for i := range flat {
		if i/50%2 == 1 {
			flat[i] = 1000
		}
	}
	cases = append(cases, tc{"two_exact_clusters", twoStateModel(), flat})

	var clamped bool
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, want := cloneModel(c.model), cloneModel(c.model)
			sc := newTrainScratch(len(c.obs), got.K())
			for it := 0; it < iters; it++ {
				gotLL, gotErr := got.baumWelchStep(c.obs, sc)
				wantLL, wantErr := referenceBaumWelchStep(want, c.obs)
				if gotErr != nil || wantErr != nil {
					t.Fatalf("iteration %d: error %v, reference %v", it, gotErr, wantErr)
				}
				what := fmt.Sprintf("iteration %d", it)
				sameBits(t, what+" ll", []float64{gotLL}, []float64{wantLL})
				sameBits(t, what+" initial", got.Initial, want.Initial)
				sameBits(t, what+" means", got.Means, want.Means)
				sameBits(t, what+" stds", got.Stds, want.Stds)
				for s := range got.Trans {
					sameBits(t, fmt.Sprintf("%s trans[%d]", what, s), got.Trans[s], want.Trans[s])
				}
				for _, std := range want.Stds {
					clamped = clamped || std == minStd
				}
			}
		})
	}
	if !clamped {
		t.Error("no case drove a fitted std onto the minStd floor")
	}
}
