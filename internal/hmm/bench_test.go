package hmm

import (
	"math/rand"
	"testing"
)

// viterbiInput is a two-state model and a day of minutes drawn from it.
func viterbiInput() (*Model, []float64) {
	m := twoStateModel()
	_, obs := sampleModel(rand.New(rand.NewSource(1)), m, 1440)
	return m, obs
}

// trainInput is 2000 samples of the two-state model.
func trainInput() []float64 {
	_, obs := sampleModel(rand.New(rand.NewSource(2)), twoStateModel(), 2000)
	return obs
}

// BenchmarkViterbi measures single-chain decoding on a day of minutes.
func BenchmarkViterbi(b *testing.B) {
	m, obs := viterbiInput()
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
	obs := trainInput()
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
	f, obs := symmetricFigure2Model(b, 1440)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Decode(obs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamPushSmall measures one StreamDecoder.Push on the fleet's
// decoder shape (fleetFactorial: 4 joint states) at a window of 4 samples,
// where the per-step overhead of the factored sweep weighs the most.
func BenchmarkStreamPushSmall(b *testing.B) {
	f, obs := fleetFactorial(b, 1440)
	d, err := f.NewStreamDecoder(4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Push(obs[i%len(obs)])
	}
}
