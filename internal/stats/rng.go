// Package stats provides deterministic random number generation and the
// small statistical helpers used throughout the simulator: geometric means,
// weighted speedups, histograms, and reservoir sampling.
//
// All randomness in the repository flows through Rng so that every
// experiment is reproducible from a fixed seed.
package stats

import "math"

// Rng is a small, fast, deterministic PRNG (splitmix64 seeded xoshiro256**).
// The zero value is not valid; use NewRng.
type Rng struct {
	s [4]uint64
}

// splitmix64 advances a 64-bit state and returns a well-mixed output.
// It is used only to seed the main generator.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRng returns a generator seeded deterministically from seed.
func NewRng(seed uint64) *Rng {
	r := &Rng{}
	st := seed
	for i := range r.s {
		r.s[i] = splitmix64(&st)
	}
	// Avoid the (astronomically unlikely) all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rng) Uint64() uint64 {
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

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rng) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
func (r *Rng) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform float in [0, 1).
func (r *Rng) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Zipf returns a value in [0, n) drawn from a Zipf-like distribution with
// exponent s. Small indices are the most popular. It uses rejection-free
// inverse-CDF approximation adequate for workload synthesis.
func (r *Rng) Zipf(n int, s float64) int {
	if n <= 1 {
		return 0
	}
	// Inverse-transform on the continuous bounded-Pareto approximation.
	u := r.Float64()
	if s == 1.0 {
		s = 1.0001 // avoid the harmonic special case
	}
	nf := float64(n)
	hi := math.Pow(nf, 1.0-s)
	x := math.Pow(u*(hi-1.0)+1.0, 1.0/(1.0-s))
	idx := int(x) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// Shuffle permutes xs in place.
func (r *Rng) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Hash64 mixes a 64-bit value (splitmix64 finalizer). It is the standard
// address hash used by S-NUCA bank selection and monitor sampling.
func Hash64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
