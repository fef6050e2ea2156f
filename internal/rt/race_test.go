//go:build race

package rt

// raceEnabled skips allocation assertions under the race detector, which
// intentionally defeats sync.Pool reuse to widen race coverage.
const raceEnabled = true
