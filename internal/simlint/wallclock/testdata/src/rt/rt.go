// Package rt carries no //lint:deterministic: the real-time runtime's whole job is
// bridging simulated protocols onto the host clock.
package rt

import "time"

func Uptime(start time.Time) time.Duration {
	return time.Since(start)
}
