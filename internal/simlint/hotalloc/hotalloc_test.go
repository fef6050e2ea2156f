package hotalloc_test

import (
	"testing"

	"gossipstream/internal/simlint/hotalloc"
	"gossipstream/internal/simlint/linttest"
)

func TestHotAlloc(t *testing.T) {
	linttest.Run(t, hotalloc.New(), "testdata", "megasim")
}

// TestHotAllocTelemetry guards the streaming fold path: the accumulator
// Observe/Add/Merge roots must stay flat counter arithmetic.
func TestHotAllocTelemetry(t *testing.T) {
	linttest.Run(t, hotalloc.New(), "testdata", "telemetry")
}

// TestHotAllocWire pins the pooled-backing contract on the SERVE batch
// split: appends into pool-drawn capacity pass only with //lint:pooled,
// and the recycle path outside the root stays free.
func TestHotAllocWire(t *testing.T) {
	linttest.Run(t, hotalloc.New(), "testdata", "wire")
}

// TestHotAllocPss pins the emission shapes of the Cyclon record's roots:
// boxing a value into an interface-typed literal field is flagged whether
// or not a return carries it, a pointer is free, error construction in a
// return is exempt, and make passes only with //lint:pooled.
func TestHotAllocPss(t *testing.T) {
	linttest.Run(t, hotalloc.New(), "testdata", "pss")
}

// TestUnmarkedPackageIsQuiet: a package with no //lint:hot function has
// no roots, so even a fixture full of allocations produces no findings.
func TestUnmarkedPackageIsQuiet(t *testing.T) {
	linttest.Run(t, hotalloc.New(), "testdata", "quiet")
}
