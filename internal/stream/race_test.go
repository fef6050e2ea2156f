//go:build race

package stream

// raceEnabled skips allocation-count assertions under the race detector,
// which intentionally defeats sync.Pool reuse to widen race coverage.
const raceEnabled = true
