package hmm

import (
	"errors"
	"fmt"
	"math"
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

// StreamDecoder is the package's one Viterbi driver. Observations are
// pushed one at a time and the decoder emits the per-chain states of each
// completed window of `window` observations: exact Viterbi within the
// window, the delta row carried across its boundary, and a commit to the
// window's maximum-likelihood final state, so later observations cannot
// revise earlier windows (the standard bounded-lag approximation). One
// window over every observation is exact Viterbi: Factorial.Decode and
// Model.Viterbi. Its working set — two delta rows, one window of
// backpointers and the sweep's elimination scratch — is fixed at
// construction, the bounded-memory contract the fleet ingest workers rely
// on.
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
	sc     sweepScratch
	filled int // observations in the open window
	seen   bool
	// emit buffers are reallocated per emission: callers typically retain
	// the emitted paths past the next Push.
}

// newDecoder returns a decoder over p emitting every `window` observations.
// Its rows come from one float and one index allocation.
func newDecoder(p *factorialPrep, window int) *StreamDecoder {
	nj := p.nj
	fs := make([]float64, 7*nj)
	is := make([]int32, (window+3)*nj)
	return &StreamDecoder{
		p:      p,
		window: window,
		delta:  fs[0:nj:nj],
		next:   fs[nj : 2*nj : 2*nj],
		prev:   is[: window*nj : window*nj],
		sc:     newSweepScratch(nj, fs[2*nj:], is[window*nj:]),
	}
}

// decode runs one decoder window over all of obs (which must be non-empty)
// and returns the per-chain Viterbi paths and the final argmax score.
func (p *factorialPrep) decode(obs []float64) ([][]int, float64) {
	d := newDecoder(p, len(obs))
	for _, x := range obs {
		d.step(x)
	}
	return d.emit()
}

// NewStreamDecoder returns an incremental decoder emitting every `window`
// observations. The model's prep tables are built now (not at first Push)
// so construction, not the hot path, pays the one-time cost.
func (f *Factorial) NewStreamDecoder(window int) (*StreamDecoder, error) {
	if window < 1 {
		return nil, fmt.Errorf("%w: window %d", ErrBadStream, window)
	}
	return newDecoder(f.prepTables(), window), nil
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

// Push feeds one observation. When it completes a window, Push returns the
// per-chain state sequences for that window's observations and true;
// otherwise it returns nil and false.
func (d *StreamDecoder) Push(x float64) ([][]int, bool) {
	d.step(x)
	if d.filled < d.window {
		return nil, false
	}
	paths, _ := d.emit()
	return paths, true
}

// Flush emits the open partial window, if any. The decoder remains usable:
// subsequent observations start a new window seeded from the carried delta,
// exactly as if the window had ended at the flush.
func (d *StreamDecoder) Flush() ([][]int, bool) {
	if d.filled == 0 {
		return nil, false
	}
	paths, _ := d.emit()
	return paths, true
}

// step advances the recursion by one observation: the initial row on the
// stream's first observation, one sweep after it. Row r of the window's
// backpointers locates step r's best predecessor inside the window; row 0
// of a non-first window points across the boundary and is never read back.
func (d *StreamDecoder) step(x float64) {
	p := d.p
	nj := p.nj
	if !d.seen {
		for j := 0; j < nj; j++ {
			d.delta[j] = p.initLog[j] + p.emitLog(x, j)
		}
		d.seen = true
	} else {
		r := d.filled
		p.sweep(x, d.delta, d.next, d.prev[r*nj:(r+1)*nj], &d.sc)
		d.delta, d.next = d.next, d.delta
	}
	d.filled++
}

// emit backtracks the open window — argmax over the carried delta row
// (strictly greater, lowest index wins), then backpointer rows filled-1..1 —
// returns its per-chain states and the argmax score, and closes the window.
func (d *StreamDecoder) emit() ([][]int, float64) {
	p, n := d.p, d.filled
	nj, nc := p.nj, p.nc
	best, j := math.Inf(-1), 0
	for s, v := range d.delta {
		if v > best {
			best, j = v, s
		}
	}
	out := make([][]int, nc)
	for i := range out {
		out[i] = make([]int, n)
	}
	for r := n - 1; r >= 0; r-- {
		for i := range out {
			out[i][r] = int(p.states[j*nc+i])
		}
		if r > 0 {
			j = int(d.prev[r*nj+j])
		}
	}
	d.filled = 0
	return out, best
}
