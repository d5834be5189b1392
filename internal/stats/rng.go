// Package stats provides deterministic random number generation,
// probability distributions, histograms and summary statistics used by
// the synthetic dataset generators and the workload generators.
//
// Everything in this package is fully deterministic given a seed so that
// experiments are reproducible run-to-run and platform-to-platform.
package stats

import "math"

// RNG is a small, fast, deterministic pseudo random number generator
// based on the SplitMix64 mixer feeding an xoshiro256** state. It is not
// cryptographically secure; it exists so that dataset generation and
// workload arrival processes are reproducible.
type RNG struct {
	s [4]uint64
	// cached second normal variate from Box-Muller.
	hasGauss bool
	gauss    float64
}

// NewRNG returns a generator seeded from seed via SplitMix64 so that
// nearby seeds produce uncorrelated streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9E3779B97F4A7C15
		z := sm
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// Avoid the all-zero state, which xoshiro cannot escape.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9E3779B97F4A7C15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits (xoshiro256**).
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

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate using the Box-Muller
// transform with caching of the second variate.
func (r *RNG) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v float64
	for {
		u = r.Float64()
		if u > 0 {
			break
		}
	}
	v = r.Float64()
	radius := math.Sqrt(-2 * math.Log(u))
	theta := 2 * math.Pi * v
	r.gauss = radius * math.Sin(theta)
	r.hasGauss = true
	return radius * math.Cos(theta)
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Split returns a new generator whose stream is independent of r.
// It is used to hand child components their own deterministic streams.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}
