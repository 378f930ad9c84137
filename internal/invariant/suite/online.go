package suite

import (
	"fmt"
	"math"
	"strings"
	"time"

	"privmem/internal/attack/niom"
	"privmem/internal/fleet"
	"privmem/internal/hmm"
	"privmem/internal/home"
	"privmem/internal/meter"
	"privmem/internal/timeseries"
)

// The online-equivalence laws pin the streaming forms the fleet runs (the
// threshold NIOM stream and the incremental FHMM decoder) to their batch
// counterparts bit for bit: an online detector replayed over a recorded
// world must emit, at every window boundary, exactly what the batch
// computation over the same prefix semantics produces. Equality here is
// float64 identity, not tolerance — the streaming forms are required to
// perform the same arithmetic in the same order.

// OnlineNIOMEquivalent records a metered home and replays it through the
// streaming NIOM detector, requiring bit-identity with the batch sliding
// detector at every window boundary, and with the full-trace batch detector
// at the final boundary.
func OnlineNIOMEquivalent(seed int64) error {
	cfg := home.DefaultConfig(seed)
	cfg.Days = 3
	tr, err := home.Simulate(cfg)
	if err != nil {
		return fmt.Errorf("invariant: online niom: %w", err)
	}
	power, err := meter.Read(meter.Config{
		Seed: seed + 1, Interval: time.Minute, NoiseStd: 8, QuantizationW: 1,
	}, tr.Aggregate)
	if err != nil {
		return fmt.Errorf("invariant: online niom: %w", err)
	}
	ncfg := niom.DefaultConfig()

	for _, history := range []int{4, 32, 1 << 20} {
		want, err := niom.SlidingThreshold(power, ncfg, history)
		if err != nil {
			return fmt.Errorf("invariant: online niom: %w", err)
		}
		s, err := niom.NewStream(ncfg, power.Step, history, niom.ModeThreshold)
		if err != nil {
			return fmt.Errorf("invariant: online niom: %w", err)
		}
		sc := &niom.Scratch{}
		var got []float64
		for _, v := range power.Values {
			if lbl, boundary := s.Push(v, sc); boundary {
				got = append(got, lbl)
			}
		}
		if len(got) != len(want) {
			return fmt.Errorf("invariant: online niom history %d: %d boundaries, batch %d",
				history, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("invariant: online niom history %d: boundary %d stream %v != batch %v",
					history, i, got[i], want[i])
			}
		}
		// With history covering the whole trace, the final boundary must
		// also match the full-trace batch detector.
		if history >= len(want) {
			full, err := batchBoundaryLabels(power, ncfg)
			if err != nil {
				return fmt.Errorf("invariant: online niom: %w", err)
			}
			if got[len(got)-1] != full[len(full)-1] {
				return fmt.Errorf("invariant: online niom: final label %v != batch %v",
					got[len(got)-1], full[len(full)-1])
			}
		}
	}
	return nil
}

// batchBoundaryLabels runs the batch threshold detector and reduces its
// per-sample expansion back to one label per analysis window.
func batchBoundaryLabels(power *timeseries.Series, cfg niom.Config) ([]float64, error) {
	out, err := niom.DetectThreshold(power, cfg)
	if err != nil {
		return nil, err
	}
	k := int(cfg.Window / power.Step)
	labels := make([]float64, 0, len(out.Values)/k)
	for i := 0; i+k <= len(out.Values); i += k {
		labels = append(labels, out.Values[i])
	}
	return labels, nil
}

// OnlineFHMMEquivalent checks the incremental factorial-HMM decoder against
// exact batch Viterbi: DecodeWindowed over the full trace must equal Decode,
// and the streaming decoder must reproduce DecodeWindowed at every window
// boundary, for several window sizes.
func OnlineFHMMEquivalent(seed int64) error {
	f, err := hmm.NewFactorial([]*hmm.Model{
		{
			Initial: []float64{0.6, 0.4},
			Trans:   [][]float64{{0.9, 0.1}, {0.2, 0.8}},
			Means:   []float64{0, 150},
			Stds:    []float64{25, 40},
		},
		{
			Initial: []float64{0.5, 0.5},
			Trans:   [][]float64{{0.85, 0.15}, {0.3, 0.7}},
			Means:   []float64{40, 600},
			Stds:    []float64{30, 70},
		},
	}, 45)
	if err != nil {
		return fmt.Errorf("invariant: online fhmm: %w", err)
	}
	// Deterministic observation track: regime switches with a seeded phase.
	// The law is about decode equivalence, not statistics, so an analytic
	// signal serves as well as a sampled one.
	obs := make([]float64, 257)
	phase := float64(seed%97) / 97
	for i := range obs {
		t := float64(i)
		obs[i] = 320 + 300*math.Sin(2*math.Pi*(t/48+phase)) + 120*math.Cos(2*math.Pi*(t/7+2*phase))
		if obs[i] < 0 {
			obs[i] = 0
		}
	}

	exact, err := f.Decode(obs)
	if err != nil {
		return fmt.Errorf("invariant: online fhmm: %w", err)
	}
	full, err := f.DecodeWindowed(obs, len(obs))
	if err != nil {
		return fmt.Errorf("invariant: online fhmm: %w", err)
	}
	if err := pathsIdentical(exact, full); err != nil {
		return fmt.Errorf("invariant: online fhmm: DecodeWindowed(full) != Decode: %w", err)
	}

	for _, window := range []int{1, 16, 64} {
		want, err := f.DecodeWindowed(obs, window)
		if err != nil {
			return fmt.Errorf("invariant: online fhmm: %w", err)
		}
		dec, err := f.NewStreamDecoder(window)
		if err != nil {
			return fmt.Errorf("invariant: online fhmm: %w", err)
		}
		got := make([][]int, len(want))
		for c := range got {
			got[c] = make([]int, 0, len(obs))
		}
		emit := func(states [][]int) {
			for c := range states {
				got[c] = append(got[c], states[c]...)
			}
		}
		for _, x := range obs {
			if states, ok := dec.Push(x); ok {
				emit(states)
			}
		}
		if states, ok := dec.Flush(); ok {
			emit(states)
		}
		if err := pathsIdentical(want, got); err != nil {
			return fmt.Errorf("invariant: online fhmm window %d: stream != batch: %w", window, err)
		}
	}
	return nil
}

// pathsIdentical compares two per-chain state paths exactly.
func pathsIdentical(a, b [][]int) error {
	if len(a) != len(b) {
		return fmt.Errorf("chain counts %d != %d", len(a), len(b))
	}
	for c := range a {
		if len(a[c]) != len(b[c]) {
			return fmt.Errorf("chain %d lengths %d != %d", c, len(a[c]), len(b[c]))
		}
		for t := range a[c] {
			if a[c][t] != b[c][t] {
				return fmt.Errorf("chain %d step %d: %d != %d", c, t, a[c][t], b[c][t])
			}
		}
	}
	return nil
}

// FleetDeterministic checks the fleet pipeline's tentpole law: the summary
// is a pure function of the spec — bit-identical at every worker count.
func FleetDeterministic(spec fleet.Spec, workerCounts []int) error {
	if len(workerCounts) < 2 {
		return fmt.Errorf("invariant: need at least 2 worker counts, got %d", len(workerCounts))
	}
	render := func(workers int) (string, error) {
		s := spec
		s.Workers = workers
		res, err := fleet.Run(s)
		if err != nil {
			return "", fmt.Errorf("invariant: fleet %d workers: %w", workers, err)
		}
		// Workers is the one field allowed to differ in the summary.
		res.Workers = 0
		var b strings.Builder
		if err := res.Render(&b); err != nil {
			return "", err
		}
		return b.String(), nil
	}
	ref, err := render(workerCounts[0])
	if err != nil {
		return err
	}
	for _, workers := range workerCounts[1:] {
		got, err := render(workers)
		if err != nil {
			return err
		}
		if got != ref {
			return fmt.Errorf("invariant: fleet summary not bit-identical between %d and %d workers:\n%s\nvs\n%s",
				workerCounts[0], workers, ref, got)
		}
	}
	return nil
}
