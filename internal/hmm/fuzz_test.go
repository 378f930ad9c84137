package hmm

import (
	"math"
	"testing"
)

// fuzzReader hands out the fuzz input one byte at a time, then zeros.
type fuzzReader []byte

func (r *fuzzReader) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// dist reads n probabilities as small integer weights (so zeros and exact
// ties are common), normalized; an all-zero draw puts all mass on entry 0.
func (r *fuzzReader) dist(n int) []float64 {
	p := make([]float64, n)
	var sum float64
	for i := range p {
		p[i] = float64(r.next() % 4)
		sum += p[i]
	}
	if sum == 0 {
		p[0], sum = 1, 1
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// obs reads one observation: ordinary values in [-200, 4900], or NaN,
// ±Inf and ±1e300 for the five top byte values.
func (r *fuzzReader) obs() float64 {
	switch b := r.next(); b {
	case 251:
		return math.NaN()
	case 252:
		return math.Inf(1)
	case 253:
		return math.Inf(-1)
	case 254:
		return 1e300
	case 255:
		return -1e300
	default:
		return float64(b)*20 - 200
	}
}

// FuzzFactorialDecode builds a factorial HMM of 1–4 chains of 1–4 states
// from the input (zero-probability transitions, exactly tied rows when the
// tie byte is odd, every observation an ordinary value or a NaN, ±Inf or
// ±1e300) and requires the factored decodes to equal the dense oracle's
// bit for bit: Decode's paths and final score and the StreamDecoder at
// windows 1, 3 and len(obs) with a Flush mid-window.
func FuzzFactorialDecode(f *testing.F) {
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 40, 50, 60, 70, 80})
	f.Add([]byte{3, 2, 1, 0, 2, 2, 3, 1, 9, 9, 3, 0, 3, 1, 1, 2, 3, 4, 30, 120, 251, 100, 90})
	f.Add([]byte{2, 3, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 7, 3, 2, 2, 200, 100, 252, 254, 10})
	f.Add([]byte{4, 4, 4, 4, 4, 3, 0, 1, 2, 3, 0, 0, 0, 1, 1, 1, 0, 2, 2, 2, 20, 255, 253, 60})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzReader(data)
		chains := make([]*Model, 1+int(r.next()%4))
		for i := range chains {
			k := 1 + int(r.next()%4)
			tied := r.next()%2 == 1
			m := &Model{
				Initial: r.dist(k),
				Trans:   make([][]float64, k),
				Means:   make([]float64, k),
				Stds:    make([]float64, k),
			}
			for s := range k {
				if tied && s > 0 {
					m.Trans[s] = m.Trans[0]
				} else {
					m.Trans[s] = r.dist(k)
				}
				m.Means[s] = float64(r.next()) * 10
				m.Stds[s] = 1 + float64(r.next()%50)
			}
			chains[i] = m
		}
		fh, err := NewFactorial(chains, 1+float64(r.next()%100))
		if err != nil {
			t.Fatal(err)
		}
		obs := make([]float64, 1+int(r.next()%40))
		for i := range obs {
			obs[i] = r.obs()
		}
		checkFactorialAgainstDense(t, "fuzz", fh, obs)
	})
}
