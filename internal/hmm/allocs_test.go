//go:build !race

package hmm

import "testing"

// The allocation ceilings pin each kernel's allocations per call on its
// benchmark's input, the one deterministic signal a benchmark run carries.
// A change that lowers a count lowers its ceiling. Race builds are left
// out: under the race detector sync.Pool drops items at random, so the
// counts of pooled scratch differ.

func TestViterbiAllocs(t *testing.T) {
	m, obs := viterbiInput()
	const ceiling = 10
	got := testing.AllocsPerRun(20, func() {
		if _, _, err := m.Viterbi(obs); err != nil {
			t.Fatal(err)
		}
	})
	if got > ceiling {
		t.Errorf("Model.Viterbi: %v allocs per call, ceiling %d", got, ceiling)
	}
}

func TestTrainAllocs(t *testing.T) {
	obs := trainInput()
	const ceiling = 27
	got := testing.AllocsPerRun(5, func() {
		if _, err := Train(obs, TrainConfig{States: 2, MaxIter: 10}); err != nil {
			t.Fatal(err)
		}
	})
	if got > ceiling {
		t.Errorf("Train: %v allocs per call, ceiling %d", got, ceiling)
	}
}

// The warm-up call AllocsPerRun makes first builds the prep tables, so the
// count is the decode alone. Over 5 runs a fresh test process read 11:
// one-off allocations elsewhere in the process divide out over 20.
func TestFactorialDecodeAllocs(t *testing.T) {
	f, obs := symmetricFigure2Model(t, 1440)
	const ceiling = 10
	got := testing.AllocsPerRun(20, func() {
		if _, err := f.Decode(obs); err != nil {
			t.Fatal(err)
		}
	})
	if got > ceiling {
		t.Errorf("Factorial.Decode: %v allocs per call, ceiling %d", got, ceiling)
	}
}

// A push that completes no window runs one sweep step on the decoder's
// fixed working set.
func TestStreamPushAllocs(t *testing.T) {
	f, obs := fleetFactorial(t, 1440)
	d, err := f.NewStreamDecoder(len(obs))
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 0
	i := 0
	got := testing.AllocsPerRun(100, func() {
		if _, done := d.Push(obs[i]); done {
			t.Fatal("push completed a window")
		}
		i++
	})
	if got > ceiling {
		t.Errorf("StreamDecoder.Push: %v allocs per call, ceiling %d", got, ceiling)
	}
}
