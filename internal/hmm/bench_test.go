package hmm

import (
	"math/rand"
	"testing"
)

// BenchmarkViterbi measures single-chain decoding on a day of minutes.
func BenchmarkViterbi(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := twoStateModel()
	_, obs := sampleModel(rng, m, 1440)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.Viterbi(obs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaumWelchTrain measures EM training on 2000 samples.
func BenchmarkBaumWelchTrain(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	_, obs := sampleModel(rng, twoStateModel(), 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(obs, TrainConfig{States: 2, MaxIter: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFactorialDecode measures joint decoding of five 2-state chains
// plus an 8-state other chain (the Figure 2 configuration) over a day.
func BenchmarkFactorialDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	var chains []*Model
	var obs []float64
	for c := 0; c < 5; c++ {
		m := &Model{
			Initial: []float64{0.5, 0.5},
			Trans:   [][]float64{{0.95, 0.05}, {0.05, 0.95}},
			Means:   []float64{0, 100 * float64(c+1)},
			Stds:    []float64{5, 10},
		}
		chains = append(chains, m)
	}
	other := &Model{
		Initial: make([]float64, 8),
		Trans:   make([][]float64, 8),
		Means:   make([]float64, 8),
		Stds:    make([]float64, 8),
	}
	for s := range 8 {
		other.Initial[s] = 1.0 / 8
		other.Means[s] = 40 * float64(s)
		other.Stds[s] = 15
		other.Trans[s] = make([]float64, 8)
		for r := range 8 {
			other.Trans[s][r] = 0.1 / 7
		}
		other.Trans[s][s] = 0.9
	}
	chains = append(chains, other)
	day := 1440
	obs = make([]float64, day)
	for i := range obs {
		obs[i] = rng.Float64() * 800
	}
	f, err := NewFactorial(chains, 100)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Decode(obs); err != nil {
			b.Fatal(err)
		}
	}
}
