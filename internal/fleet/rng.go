package fleet

import "math"

// rng is a splitmix64 generator. Per-home randomness cannot use *rand.Rand:
// its source alone is ~5 KB (a 607-word lagged Fibonacci state), which at a
// million homes is multiple gigabytes of generator state. splitmix64 is 8
// bytes of state, passes through every 64-bit value, and is seeded directly
// from the seeds.SubSeedIndex hash. Streams are never split or shared: one
// rng per home, advanced only while processing that home, so results cannot
// depend on worker count or scheduling.
type rng struct{ s uint64 }

// next returns the next 64-bit value.
func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64v returns a uniform value in [0, 1) with 53 random bits.
func (r *rng) float64v() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// norm returns a standard normal via Box-Muller. It draws exactly two
// uniforms per call (no caching of the second variate, no rejection loop),
// so the number of generator steps per call is fixed — a property the
// determinism laws lean on: state after n calls depends only on the seed
// and n, never on the values drawn.
func (r *rng) norm() float64 {
	u1 := r.float64v()
	u2 := r.float64v()
	// Guard the log: float64v can return exactly 0.
	if u1 == 0 {
		u1 = 0x1p-53
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
