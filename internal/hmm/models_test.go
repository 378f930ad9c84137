package hmm

import (
	"math/rand"
	"testing"
)

// symmetricFigure2Model is the Figure 2 shape with symmetric parameters:
// five 2-state chains that switch with probability 0.05, plus an 8-state
// other chain that leaves each state for each other one with probability
// 0.1/7, and n uniform observations in [0, 800). The symmetric rows make
// many joint transitions exactly equal, so predecessors tie.
func symmetricFigure2Model(t testing.TB, n int) (*Factorial, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	var chains []*Model
	for c := 0; c < 5; c++ {
		chains = append(chains, &Model{
			Initial: []float64{0.5, 0.5},
			Trans:   [][]float64{{0.95, 0.05}, {0.05, 0.95}},
			Means:   []float64{0, 100 * float64(c+1)},
			Stds:    []float64{5, 10},
		})
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
	obs := make([]float64, n)
	for i := range obs {
		obs[i] = rng.Float64() * 800
	}
	f, err := NewFactorial(chains, 100)
	if err != nil {
		t.Fatal(err)
	}
	return f, obs
}

// fleetFactorial is the fleet's decoder shape, the family archetype's
// two 2-state chains as fleet's archFactorial builds them (4 joint
// states), with n observations sampled from the chains.
func fleetFactorial(t testing.TB, n int) (*Factorial, []float64) {
	t.Helper()
	chains := []*Model{
		{
			Initial: []float64{0.6, 0.4},
			Trans:   [][]float64{{0.85, 0.15}, {0.3, 0.7}},
			Means:   []float64{35, 160},
			Stds:    []float64{20, 45},
		},
		{
			Initial: []float64{0.7, 0.3},
			Trans:   [][]float64{{0.9, 0.1}, {0.25, 0.75}},
			Means:   []float64{0, 350 + 180*2.2},
			Stds:    []float64{30, 60 + 40*0.2},
		},
	}
	f, err := NewFactorial(chains, 40+6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	obs := make([]float64, n)
	for _, c := range chains {
		_, xs := sampleModel(rng, c, n)
		for i, x := range xs {
			obs[i] += x
		}
	}
	return f, obs
}
