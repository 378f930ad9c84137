package hmm

import (
	"errors"
	"fmt"
)

// ErrBadStream indicates invalid streaming-decode parameters.
var ErrBadStream = errors.New("hmm: invalid stream config")

// prepTables returns the decode kernel's precomputed state, building it on
// first use. Decode and the streaming decoder share these tables, which is
// what the fleet pipeline relies on: one prep per model, reused by every
// incremental decoder attached to it.
func (f *Factorial) prepTables() *factorialPrep {
	f.prepOnce.Do(func() { f.prep = f.buildPrep() })
	return f.prep
}

// DecodeWindowed is the batch counterpart of the streaming decoder: exact
// Viterbi run window-by-window with the delta row carried across window
// boundaries. Within each window of `window` observations the full lattice
// is kept and backtracked; at each boundary the decoder commits to the
// maximum-likelihood joint state of the window's last step and discards the
// lattice, so later observations can no longer revise earlier windows.
//
// This is the standard bounded-lag approximation of full Viterbi. Two laws
// pin it down, both enforced bit-exactly by the golden tests:
//
//   - DecodeWindowed(obs, len(obs)) equals Decode(obs) — a single window is
//     full Viterbi, same arithmetic, same strictly-greater argmax tie-break;
//   - a StreamDecoder fed the same observations one at a time (in any chunk
//     sizes) emits exactly DecodeWindowed's states at every window boundary.
func (f *Factorial) DecodeWindowed(obs []float64, window int) ([][]int, error) {
	nc := len(f.Chains)
	if window < 1 {
		return nil, fmt.Errorf("%w: window %d", ErrBadStream, window)
	}
	out := make([][]int, nc)
	for i := range out {
		out[i] = make([]int, len(obs))
	}
	if len(obs) == 0 {
		return out, nil
	}
	p := f.prepTables()
	nj := p.nj
	delta := make([]float64, nj)
	next := make([]float64, nj)
	prev := make([]int32, window*nj)

	for lo := 0; lo < len(obs); lo += window {
		hi := lo + window
		if hi > len(obs) {
			hi = len(obs)
		}
		for t := lo; t < hi; t++ {
			r := t - lo
			if t == 0 {
				for j := 0; j < nj; j++ {
					delta[j] = p.initLog[j] + p.emitLog(obs[0], j)
				}
				continue
			}
			// Row r's backpointers locate step r's best predecessor inside
			// this window; row 0 of a non-first window points across the
			// boundary and is never read back.
			p.sweepRange(obs[t], delta, next, prev[r*nj:(r+1)*nj], 0, nj)
			delta, next = next, delta
		}
		emitWindow(p, delta, prev, out, lo, hi-lo)
	}
	return out, nil
}

// emitWindow backtracks the current window's lattice — argmax over the
// carried delta row at the window's last step, then prev rows n-1..1 — and
// writes the per-chain states for steps [lo, lo+n) into out.
func emitWindow(p *factorialPrep, delta []float64, prev []int32, out [][]int, lo, n int) {
	nj, nc := p.nj, p.nc
	best, arg := delta[0], 0
	for j := 1; j < nj; j++ {
		if delta[j] > best {
			best, arg = delta[j], j
		}
	}
	j := arg
	for r := n - 1; r >= 0; r-- {
		for i := 0; i < nc; i++ {
			out[i][lo+r] = int(p.states[j*nc+i])
		}
		if r > 0 {
			j = int(prev[r*nj+j])
		}
	}
}

// StreamDecoder decodes a factorial HMM incrementally: observations are
// pushed one at a time and the decoder emits the per-chain Viterbi states of
// each completed window, carrying the delta row across boundaries exactly
// like DecodeWindowed. Its working set — two delta rows plus one window of
// backpointers — is fixed at construction, independent of how many
// observations ever flow through it, which is the bounded-memory contract
// the fleet ingest workers rely on.
//
// A StreamDecoder is not safe for concurrent use; each stream of
// observations owns its decoder. Decoders attached to the same Factorial
// share its prep tables.
type StreamDecoder struct {
	p      *factorialPrep
	window int
	delta  []float64
	next   []float64
	prev   []int32
	filled int // observations in the open window
	seen   bool
	// emit buffers are reallocated per emission: callers typically retain
	// the emitted paths past the next Push.
}

// NewStreamDecoder returns an incremental decoder emitting every `window`
// observations. The model's prep tables are built now (not at first Push)
// so construction, not the hot path, pays the one-time cost.
func (f *Factorial) NewStreamDecoder(window int) (*StreamDecoder, error) {
	if window < 1 {
		return nil, fmt.Errorf("%w: window %d", ErrBadStream, window)
	}
	p := f.prepTables()
	return &StreamDecoder{
		p:      p,
		window: window,
		delta:  make([]float64, p.nj),
		next:   make([]float64, p.nj),
		prev:   make([]int32, window*p.nj),
	}, nil
}

// Beam is NewStreamDecoderBeam's ignored option argument.
//
// Deprecated: Beam exists only so the perfbench module compiles; it will be
// removed together with its use there. Use NewStreamDecoder.
type Beam struct{}

// NewStreamDecoderBeam is NewStreamDecoder.
//
// Deprecated: it exists only so the perfbench module compiles; it will be
// removed together with its use there. Use NewStreamDecoder.
func (f *Factorial) NewStreamDecoderBeam(window int, _ Beam) (*StreamDecoder, error) {
	return f.NewStreamDecoder(window)
}

// Window returns the emission window length.
func (d *StreamDecoder) Window() int { return d.window }

// Push feeds one observation. When it completes a window, Push returns the
// per-chain state sequences for that window's observations and true;
// otherwise it returns nil and false.
func (d *StreamDecoder) Push(x float64) ([][]int, bool) {
	p := d.p
	nj := p.nj
	r := d.filled
	if !d.seen {
		for j := 0; j < nj; j++ {
			d.delta[j] = p.initLog[j] + p.emitLog(x, j)
		}
		d.seen = true
	} else {
		p.sweepRange(x, d.delta, d.next, d.prev[r*nj:(r+1)*nj], 0, nj)
		d.delta, d.next = d.next, d.delta
	}
	d.filled++
	if d.filled < d.window {
		return nil, false
	}
	return d.emit(), true
}

// Flush emits the open partial window, if any. The decoder remains usable:
// subsequent observations start a new window seeded from the carried delta,
// matching DecodeWindowed applied to the flushed-at boundary.
func (d *StreamDecoder) Flush() ([][]int, bool) {
	if d.filled == 0 {
		return nil, false
	}
	return d.emit(), true
}

func (d *StreamDecoder) emit() [][]int {
	out := make([][]int, d.p.nc)
	for i := range out {
		out[i] = make([]int, d.filled)
	}
	emitWindow(d.p, d.delta, d.prev, out, 0, d.filled)
	d.filled = 0
	return out
}
