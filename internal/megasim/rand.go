package megasim

import (
	"math/rand"

	"gossipstream/internal/xrand"
)

// NewRand returns a deterministic *rand.Rand over a compact 8-byte
// splitmix64 state (see internal/xrand) instead of the ~5 KB default
// source. At 100k+ nodes — one private stream per node — the default
// source alone would cost half a gigabyte; this keeps per-node
// RNG state negligible. The seed is finalized through one mixing round so
// adjacent seeds (node 0, node 1, ...) yield decorrelated streams.
func NewRand(seed int64) *rand.Rand {
	return xrand.New(seed)
}
