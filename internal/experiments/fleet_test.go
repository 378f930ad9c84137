package experiments

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"privmem/internal/attack/niom"
	"privmem/internal/fleet"
	"privmem/internal/hmm"
	"privmem/internal/home"
	"privmem/internal/meter"
	"privmem/internal/seeds"
	"privmem/internal/timeseries"
)

// TestPropFleetDeterministic checks the fleet law on the population fl1
// reports at quick scale and seed 42: fl1 leaves the fleet's worker count at
// its default, so RunAll's worker sweep never varies it, and this test does —
// the summary must render bit-identically at 1, 3 and 7 workers.
func TestPropFleetDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet sweep is not short")
	}
	spec := fleet.DefaultSpec()
	spec.Seed = seeds.SubSeed(Options{Quick: true}.ForExperiment("fl1").seed(), "fleet")
	spec.Homes, spec.Days = 200, 2
	var want string
	for _, workers := range []int{1, 3, 7} {
		s := spec
		s.Workers = workers
		res, err := fleet.Run(s)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		// Workers is the one field allowed to differ in the summary.
		res.Workers = 0
		var b bytes.Buffer
		if err := res.Render(&b); err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			want = b.String()
			continue
		}
		if b.String() != want {
			t.Fatalf("fleet summary not bit-identical between 1 and %d workers:\n%s\nvs\n%s", workers, want, b.String())
		}
	}
}

// recordedHome simulates a home for the given days and reads it through a
// meter at the given interval: the recorded world the online attacks are
// replayed over.
func recordedHome(t *testing.T, seed int64, days int, interval time.Duration) *timeseries.Series {
	t.Helper()
	cfg := home.DefaultConfig(seed)
	cfg.Days = days
	tr, err := home.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	power, err := meter.Read(meter.Config{
		Seed: seed + 1, Interval: interval, NoiseStd: 8, QuantizationW: 1,
	}, tr.Aggregate)
	if err != nil {
		t.Fatal(err)
	}
	return power
}

// TestPropOnlineNIOMEquivalent replays recorded metered homes through the
// streaming NIOM detector with a history that never drops a window, and
// requires, bit for bit, that the label it emits at each window boundary is
// the batch detector's final-window label over the trace up to there: the
// stream is the batch detector run on every prefix.
func TestPropOnlineNIOMEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("online equivalence sweep is not short")
	}
	cfg := niom.DefaultConfig()
	for _, seed := range []int64{0, 7, 42} {
		power := recordedHome(t, seed, 3, time.Minute)
		k := int(cfg.Window / power.Step)
		s, err := niom.NewStream(cfg, power.Step, 1<<20, niom.ModeThreshold)
		if err != nil {
			t.Fatal(err)
		}
		sc := &niom.Scratch{}
		w := 0
		for i, v := range power.Values {
			label, boundary := s.Push(v, sc)
			if !boundary {
				continue
			}
			if i+1 != (w+1)*k {
				t.Fatalf("seed %d: window %d closed at sample %d, want %d", seed, w, i+1, (w+1)*k)
			}
			batch, err := niom.DetectThreshold(power.Slice(0, i+1), cfg)
			if err != nil {
				t.Fatalf("seed %d window %d: %v", seed, w, err)
			}
			if want := batch.Values[w*k]; label != want {
				t.Fatalf("seed %d window %d: stream %v != batch over the prefix %v", seed, w, label, want)
			}
			w++
		}
		if w != power.Len()/k {
			t.Fatalf("seed %d: stream closed %d windows, want %d", seed, w, power.Len()/k)
		}
	}
}

// TestPropOnlineFHMMEquivalent replays recorded metered homes, read at the
// fleet's 15-minute step, through the incremental factorial-HMM decoder and
// pins it to exact batch Viterbi through the exported API: at each window
// size the first window (which carries no state in) equals Decode of that
// prefix — so one window over the whole trace equals Decode — and every
// window's final state is the final state of Decode over the prefix ending
// there.
func TestPropOnlineFHMMEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("online equivalence sweep is not short")
	}
	f, err := hmm.NewFactorial([]*hmm.Model{
		{
			Initial: []float64{0.6, 0.4},
			Trans:   [][]float64{{0.85, 0.15}, {0.3, 0.7}},
			Means:   []float64{35, 160},
			Stds:    []float64{20, 45},
		},
		{
			Initial: []float64{0.7, 0.3},
			Trans:   [][]float64{{0.9, 0.1}, {0.25, 0.75}},
			Means:   []float64{0, 600},
			Stds:    []float64{30, 80},
		},
	}, 45)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{0, 13, 42} {
		obs := recordedHome(t, seed, 2, 15*time.Minute).Values
		// Every window size divides the trace, so Push alone closes every
		// window, the last one included.
		for _, window := range []int{1, 4, 16, 64, len(obs)} {
			name := fmt.Sprintf("seed %d window %d", seed, window)
			if len(obs)%window != 0 {
				t.Fatalf("%s: %d observations do not fill whole windows", name, len(obs))
			}
			dec, err := f.NewStreamDecoder(window)
			if err != nil {
				t.Fatal(err)
			}
			got := make([][]int, len(f.Chains))
			for i, x := range obs {
				states, ok := dec.Push(x)
				if !ok {
					continue
				}
				for c := range states {
					got[c] = append(got[c], states[c]...)
				}
				prefix, err := f.Decode(obs[:i+1])
				if err != nil {
					t.Fatal(err)
				}
				for c := range got {
					if i+1 == window && !slices.Equal(got[c], prefix[c]) {
						t.Fatalf("%s: chain %d first window %v != Decode(prefix) %v", name, c, got[c], prefix[c])
					}
					if got[c][i] != prefix[c][i] {
						t.Fatalf("%s: chain %d state at boundary %d: stream %d != Decode(prefix) %d",
							name, c, i+1, got[c][i], prefix[c][i])
					}
				}
			}
		}
	}
}
