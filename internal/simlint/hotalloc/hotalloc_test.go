package hotalloc_test

import (
	"testing"

	"gossipstream/internal/simlint/hotalloc"
	"gossipstream/internal/simlint/lintcfg"
	"gossipstream/internal/simlint/linttest"
)

func TestHotAlloc(t *testing.T) {
	linttest.Run(t, hotalloc.New(lintcfg.Default()), "testdata", "megasim")
}

// TestHotAllocTelemetry guards the streaming fold path: the accumulator
// Observe/Add/Merge roots must stay flat counter arithmetic.
func TestHotAllocTelemetry(t *testing.T) {
	linttest.Run(t, hotalloc.New(lintcfg.Default()), "testdata", "telemetry")
}

// TestHotAllocWire pins the pooled-backing contract on the SERVE batch
// split: appends into pool-drawn capacity pass only with //lint:pooled,
// and the recycle path outside the root stays free.
func TestHotAllocWire(t *testing.T) {
	linttest.Run(t, hotalloc.New(lintcfg.Default()), "testdata", "wire")
}

// TestHotAllocPss pins the emission shapes of the Cyclon record's roots:
// boxing a value into an interface-typed literal field is flagged whether
// or not a return carries it, a pointer is free, error construction in a
// return is exempt, and make passes only with //lint:pooled.
func TestHotAllocPss(t *testing.T) {
	linttest.Run(t, hotalloc.New(lintcfg.Default()), "testdata", "pss")
}

// TestCustomRoots exercises the config plumbing: the same fixture with no
// hot roots configured must produce no findings at all.
func TestCustomRoots(t *testing.T) {
	cfg := lintcfg.Default()
	cfg.HotRoots = map[string][]string{}
	diagsFree := hotalloc.New(cfg)
	linttest.Run(t, diagsFree, "testdata", "quiet")
}
