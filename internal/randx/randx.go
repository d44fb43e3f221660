// Package randx provides deterministic random-number utilities used
// throughout the SES reproduction: seeded PCG streams, a stateless
// hash-to-unit function (used for the σ activity model), and exact
// samplers for the distributions the paper's experimental setup needs
// (uniform ranges, Zipf tag popularity, categorical via the alias
// method).
//
// Everything in this package is deterministic given its seed so that
// instances, experiments and tests are reproducible bit-for-bit.
package randx

import (
	"math/rand/v2"
)

// Source is a seeded random stream. It wraps math/rand/v2's PCG so the
// rest of the repository never has to care about the generator choice.
type Source struct {
	rng *rand.Rand
}

// NewSource returns a deterministic stream for the given seed. Distinct
// seeds yield independent-looking streams.
func NewSource(seed uint64) *Source {
	return &Source{rng: rand.New(rand.NewPCG(seed, splitmix64(seed+0x9e3779b97f4a7c15)))}
}

// Derive returns a new independent stream keyed by (the source's seed
// material, label). It is used to split one experiment seed into
// per-component streams (users, events, competing events, ...) so that
// changing how one component consumes randomness does not perturb the
// others.
func Derive(seed uint64, label string) *Source {
	h := seed
	for _, b := range []byte(label) {
		h = splitmix64(h ^ uint64(b))
	}
	return NewSource(h)
}

// Uint64 returns a uniformly distributed 64-bit value.
func (s *Source) Uint64() uint64 { return s.rng.Uint64() }

// IntN returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) IntN(n int) int { return s.rng.IntN(n) }

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Range returns a uniform value in [lo, hi).
func (s *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.rng.Float64()
}

// IntRange returns a uniform integer in [lo, hi] (inclusive).
// It panics if hi < lo.
func (s *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic("randx: IntRange with hi < lo")
	}
	return lo + s.rng.IntN(hi-lo+1)
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// Shuffle shuffles n elements using the provided swap function.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.rng.Float64() < p }

// SampleWithoutReplacement returns m distinct integers drawn uniformly
// from [0, n). It panics if m > n. The result is in random order.
// For m close to n it shuffles a full permutation; for sparse draws it
// uses rejection with a set, which is O(m) in expectation.
func (s *Source) SampleWithoutReplacement(n, m int) []int {
	if m > n {
		panic("randx: sample size exceeds population")
	}
	if m*3 >= n {
		p := s.rng.Perm(n)
		return p[:m]
	}
	seen := make(map[int]struct{}, m)
	out := make([]int, 0, m)
	for len(out) < m {
		v := s.rng.IntN(n)
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

// splitmix64 is the SplitMix64 finalizer; a fast, well-mixed 64-bit
// permutation used for hashing and seed derivation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashToUnit maps (seed, a, b) deterministically to [0, 1). It is the
// stateless generator behind the σ(u,t) ~ U(0,1) activity model: no
// |U|×|T| table has to be materialized and every engine observes the
// same value for the same (user, interval) pair. It is defined through
// its two halves, so a caller that keeps HashKey(seed, a) pays one mix
// per b instead of three.
func HashToUnit(seed uint64, a, b int) float64 {
	return KeyToUnit(HashKey(seed, a), b)
}

// HashKey is the (seed, a) half of HashToUnit.
func HashKey(seed uint64, a int) uint64 {
	h := splitmix64(seed ^ 0x6a09e667f3bcc909)
	return splitmix64(h ^ uint64(a)*0x9e3779b97f4a7c15)
}

// KeyToUnit is the b half of HashToUnit: it finishes a HashKey.
func KeyToUnit(key uint64, b int) float64 {
	h := splitmix64(key ^ uint64(b)*0xc2b2ae3d27d4eb4f)
	// 53 high bits -> [0,1) with full double precision.
	return float64(h>>11) / float64(1<<53)
}
