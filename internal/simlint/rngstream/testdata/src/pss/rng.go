// Package pss is an rngstream fixture: RNG streams in deterministic
// packages must be seeded from internal/xrand, and no stream may live in
// package-level state where every shard shares it.
//
//lint:deterministic the fixture stands for the Cyclon package, which replays per seed
package pss

import (
	"math/rand"

	"gossipstream/internal/xrand"
)

// Package-level streams are shared across shard boundaries: one shard's
// event order perturbs another shard's draws.
var sharedRand = rand.New(&zeroSource{}) // want `package-level RNG state "sharedRand"` `rand\.New over a non-xrand source`

var sharedState xrand.SplitMix64 // want `package-level RNG state "sharedState"`

// zeroSource only exists so sharedRand needs no rand.NewSource call.
type zeroSource struct{}

func (*zeroSource) Int63() int64    { return 0 }
func (*zeroSource) Seed(seed int64) {}

// badSources builds streams from math/rand's own 5 KB source.
func badSources(seed int64) *rand.Rand {
	src := rand.NewSource(seed) // want `rand\.NewSource constructs a non-xrand RNG source`
	_ = src
	return rand.New(rand.NewSource(seed)) // want `rand\.NewSource constructs a non-xrand RNG source`
}

// badWrap wraps a source of unknown provenance.
func badWrap(src rand.Source) *rand.Rand {
	return rand.New(src) // want `rand\.New over a non-xrand source`
}

// localSource resolves through a plain identifier call, not a selector.
func localSource() rand.Source { return &zeroSource{} }

func badLocalWrap() *rand.Rand {
	return rand.New(localSource()) // want `rand\.New over a non-xrand source`
}

// fanout is package-level but holds no RNG state: not flagged.
var fanout = 7

// goodStreams is the sanctioned discipline: 8-byte xrand state, by value
// in records or wrapped for the standard API.
func goodStreams(seed int64) (int, float64) {
	state := xrand.Seeded(seed) // value state, copyable into node records
	wrapped := rand.New(&state) // rand.New over an xrand source: fine
	direct := xrand.New(seed)   // the blessed wrapper: fine
	return wrapped.Intn(10), direct.Float64()
}
