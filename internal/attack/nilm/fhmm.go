package nilm

import (
	"fmt"
	"sort"

	"privmem/internal/hmm"
	"privmem/internal/par"
	"privmem/internal/timeseries"
)

// FHMMConfig parameterizes the factorial-HMM baseline.
type FHMMConfig struct {
	// StatesPerDevice is the number of hidden states learned per device
	// (default 2: off/on; compressors and multi-mode devices may use 3).
	StatesPerDevice int
	// ObsStdW is the assumed observation noise of the aggregate in watts,
	// absorbing meter noise and unmodeled loads (default 200 W).
	ObsStdW float64
	// ChunkSamples bounds the Viterbi lattice length decoded at once; long
	// traces are decoded in consecutive chunks (default 1440, one day of
	// minutes). Factorial decoding is O(T * K^2D), so chunking keeps memory
	// flat without affecting the decoded path except at chunk borders.
	ChunkSamples int
	// OtherStates is the number of states of the auxiliary "other loads"
	// chain trained on the unmetered remainder (aggregate minus tracked
	// devices), the standard REDD-style construction [19]. Zero disables
	// the chain (default 8 when an other-loads trace is supplied).
	OtherStates int
}

// DefaultFHMMConfig returns the baseline configuration used in the
// experiments.
func DefaultFHMMConfig() FHMMConfig {
	return FHMMConfig{StatesPerDevice: 2, ObsStdW: 200, ChunkSamples: 1440, OtherStates: 8}
}

func (c *FHMMConfig) withDefaults() FHMMConfig {
	out := *c
	d := DefaultFHMMConfig()
	if out.StatesPerDevice == 0 {
		out.StatesPerDevice = d.StatesPerDevice
	}
	if out.ObsStdW == 0 {
		out.ObsStdW = d.ObsStdW
	}
	if out.ChunkSamples == 0 {
		out.ChunkSamples = d.ChunkSamples
	}
	if out.OtherStates == 0 {
		out.OtherStates = d.OtherStates
	}
	return out
}

func (c *FHMMConfig) validate() error {
	switch {
	case c.StatesPerDevice < 1 || c.StatesPerDevice > 4:
		return fmt.Errorf("%w: states per device %d", ErrBadConfig, c.StatesPerDevice)
	case c.ObsStdW <= 0:
		return fmt.Errorf("%w: obs std %v W", ErrBadConfig, c.ObsStdW)
	case c.ChunkSamples < 16:
		return fmt.Errorf("%w: chunk samples %d", ErrBadConfig, c.ChunkSamples)
	case c.OtherStates < 0 || c.OtherStates > 8:
		return fmt.Errorf("%w: other states %d", ErrBadConfig, c.OtherStates)
	}
	return nil
}

// FHMM is a trained factorial-HMM disaggregator.
type FHMM struct {
	cfg     FHMMConfig
	names   []string
	chains  []*hmm.Model
	factory *hmm.Factorial
}

// TrainFHMM learns one HMM per device from submetered training traces
// (device name -> ground-truth power series), the training protocol the
// paper attributes to the conventional NILM approach [19]. If other is
// non-nil it must hold the unmetered remainder of the training aggregate
// (aggregate minus tracked devices); an auxiliary chain with
// cfg.OtherStates states is trained on it to absorb unmodeled loads during
// decoding, as in REDD-style FHMM implementations. The auxiliary chain is
// internal: it never appears in Devices or Disaggregate output.
func TrainFHMM(submetered map[string]*timeseries.Series, other *timeseries.Series, cfg FHMMConfig) (*FHMM, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("train fhmm: %w", err)
	}
	if len(submetered) == 0 {
		return nil, fmt.Errorf("train fhmm: %w: no training traces", ErrBadConfig)
	}
	names := make([]string, 0, len(submetered))
	for name := range submetered {
		names = append(names, name)
	}
	sort.Strings(names)

	// Each chain trains on its own trace, so the chains train concurrently
	// into fixed slots. Workers take the chains last first: the
	// other-loads chain has the most states and trains longest, so starting
	// it first keeps it from running alone at the end.
	nChains := len(names)
	if other != nil && cfg.OtherStates > 0 {
		nChains++
	}
	chains := make([]*hmm.Model, nChains)
	err := par.For(nChains, func(k int) (err error) {
		i := nChains - 1 - k
		if i < len(names) {
			chains[i], err = hmm.Train(submetered[names[i]].Values, hmm.TrainConfig{States: cfg.StatesPerDevice})
			if err != nil {
				return fmt.Errorf("train fhmm: device %q: %w", names[i], err)
			}
			return nil
		}
		chains[i], err = hmm.Train(other.Values, hmm.TrainConfig{States: cfg.OtherStates})
		if err != nil {
			return fmt.Errorf("train fhmm: other-loads chain: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	factory, err := hmm.NewFactorial(chains, cfg.ObsStdW)
	if err != nil {
		return nil, fmt.Errorf("train fhmm: %w", err)
	}
	return &FHMM{cfg: cfg, names: names, chains: chains, factory: factory}, nil
}

// Disaggregate decodes the aggregate trace into per-device inferred power
// series via joint (factorial) Viterbi.
func (f *FHMM) Disaggregate(aggregate *timeseries.Series) (map[string]*timeseries.Series, error) {
	out := make(map[string]*timeseries.Series, len(f.names))
	for _, name := range f.names {
		out[name] = timeseries.MustNew(aggregate.Start, aggregate.Step, aggregate.Len())
	}
	// Chunks decode independently, each with the serial Viterbi sweep, and
	// write disjoint ranges of the output series.
	n, chunk := aggregate.Len(), f.cfg.ChunkSamples
	err := par.For((n+chunk-1)/chunk, func(c int) error {
		lo := c * chunk
		hi := min(lo+chunk, n)
		powers, err := f.factory.InferPower(aggregate.Values[lo:hi])
		if err != nil {
			return fmt.Errorf("fhmm disaggregate [%d:%d]: %w", lo, hi, err)
		}
		for d, name := range f.names {
			copy(out[name].Values[lo:hi], powers[d])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
