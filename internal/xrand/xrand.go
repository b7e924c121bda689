// Package xrand provides the deterministic random-number machinery used by
// every stochastic component of the simulator (workload generation, fault
// injection, Monte-Carlo trials).
//
// All simulation randomness must flow through this package so that every
// experiment is exactly reproducible from its seed. The generator is
// xoshiro256**, seeded through splitmix64 per the reference recommendation,
// which gives high-quality 64-bit streams with a tiny state and lets us seed
// independent sub-streams cheaply (see Derive).
package xrand

import (
	"math"
	"math/bits"
)

// RNG is a deterministic xoshiro256** pseudo-random generator.
//
// The zero value is not usable; construct with New. RNG is not safe for
// concurrent use; seed one per goroutine instead (see Derive).
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances the seed expansion state and returns the next value.
// It is used only to initialize xoshiro state from a single 64-bit seed.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Derive mixes a base seed with a sequence of salts into a new seed, giving
// a deterministic, collision-resistant way to assign independent RNG streams
// to units of parallel work: Derive(seed, stratum, shard) names the same
// stream no matter which worker ends up running the shard, which is what
// makes sharded Monte-Carlo results independent of the worker count. The
// derivation is order-sensitive — Derive(s, 1, 2) != Derive(s, 2, 1).
func Derive(base uint64, salts ...uint64) uint64 {
	x := base
	h := splitmix64(&x)
	for _, s := range salts {
		// Fold each salt into the running state through a full splitmix64
		// round; the odd multiplier spreads small consecutive salts (0, 1,
		// 2, ...) across the word before mixing.
		x = h ^ (s*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03)
		h = splitmix64(&x)
	}
	return h
}

// New returns a generator seeded from seed. Distinct seeds give streams that
// are statistically independent for simulation purposes.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	r.s0 = splitmix64(&sm)
	r.s1 = splitmix64(&sm)
	r.s2 = splitmix64(&sm)
	r.s3 = splitmix64(&sm)
	// xoshiro must not start from the all-zero state; splitmix64 of any seed
	// cannot produce four zero words, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 1
	}
	return r
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := bits.RotateLeft64(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	threshold := -n % n // (2^64 - n) mod n
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, n)
		if lo >= threshold {
			return hi
		}
	}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// NormFloat64 returns a standard normal variate (Box-Muller, polar form).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Poisson returns a Poisson variate with the given mean. For large means it
// uses a normal approximation, which is adequate for trace-generation
// purposes and keeps the cost O(1).
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		v := mean + math.Sqrt(mean)*r.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	// Knuth's method for small means.
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
