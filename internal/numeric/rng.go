// Package numeric provides the small numerical toolkit fcdpm is built on:
// a deterministic random number generator, one-dimensional minimization and
// root finding, monotone table interpolation, and summary statistics.
//
// Everything here is deterministic and allocation-free in steady state so
// that simulations are exactly reproducible across runs and platforms.
package numeric

import "math"

// RNG is a deterministic pseudo-random number generator based on
// xoshiro256** seeded through splitmix64. It is not safe for concurrent use;
// each goroutine should own its own RNG.
//
// The zero value is not usable; construct with NewRNG.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed. Two generators constructed
// with the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed rewinds the generator in place to the exact stream NewRNG(seed)
// would produce, without allocating — the rewind primitive run-reuse
// machinery needs to restart a deterministic noise stream per run.
func (r *RNG) Reseed(seed uint64) {
	// splitmix64 to spread the seed across all 256 bits of state.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform value in [lo, hi). It panics if hi < lo.
func (r *RNG) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic("numeric: Uniform with hi < lo")
	}
	return lo + (hi-lo)*r.Float64()
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("numeric: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a normally distributed value with the given mean and standard
// deviation, using the Marsaglia polar method.
func (r *RNG) Norm(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}
