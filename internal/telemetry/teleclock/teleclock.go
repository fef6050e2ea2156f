// Package teleclock is the wall-clock edge of the telemetry suite. It
// is the only telemetry code allowed to read real time — simlint
// classifies it WallClockOK while the parent package stays
// Deterministic. The injected clock samples wall time at the edges of
// the engine's phases, never per event, so enabling it cannot perturb a
// run's simulated behavior.
package teleclock

import (
	"fmt"
	"io"
	"time"

	"gossipstream/internal/telemetry"
)

// Clock returns a nanosecond sampler of the monotonic clock for
// megasim.Engine.SetWallClock. The engine calls it at phase and barrier
// boundaries from every shard goroutine; it is safe for concurrent use.
func Clock() func() int64 {
	start := time.Now()
	return func() int64 { return int64(time.Since(start)) }
}

// Progress returns a snapshot hook that rewrites a single live status
// line on w (typically stderr) each time the engine takes a snapshot.
// Call Done to terminate the line before printing anything else.
func Progress(w io.Writer) func(telemetry.Snapshot) {
	start := time.Now()
	return func(s telemetry.Snapshot) {
		fmt.Fprintf(w, "\r[%7.1fs wall] t=%6.1fs live=%-7d events=%-12d pending=%d   ",
			time.Since(start).Seconds(), s.AtSeconds, s.Live, s.Events, s.Pending)
	}
}

// Done terminates a Progress line.
func Done(w io.Writer) {
	fmt.Fprintln(w)
}
