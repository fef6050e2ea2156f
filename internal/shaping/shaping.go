// Package shaping models constrained upload links.
//
// The paper ("Stretching Gossip with Live Streaming", §4) caps each node's
// upload bandwidth and notes that the limiter "implements a bandwidth
// throttling mechanism" to limit loss from bursts. This package provides
// exactly that mechanism: Shaper, an O(1) virtual-queue model of the
// uplink. A message of size S bits occupies the uplink for S/rate seconds;
// bursts queue up to a bound (throttling) and overflow is dropped
// (drop-tail), which is the congestion-loss mode the paper observes at
// high fanouts. The discrete-event simulator schedules each delivery at
// the departure time the Shaper returns; the real-time UDP driver
// (internal/rt) writes each datagram at it.
//
//lint:deterministic the uplink model queues every simulated send
package shaping

import (
	"fmt"
	"time"
)

// Unlimited configures a Shaper with no rate cap.
const Unlimited int64 = 0

// DefaultQueueBytes is the uplink queue bound of the paper's testbed model:
// 128 KB, about 1.5 s of backlog at a 700 kbps cap.
const DefaultQueueBytes int64 = 128 << 10

// Shaper is a virtual FIFO uplink drained at a fixed bit rate with a bounded
// buffer. It does not schedule events itself; Enqueue returns the departure
// time of each message and the caller schedules delivery. State advances
// lazily, so Enqueue is O(1).
//
// The zero value is an unlimited, unbuffered link; construct with NewShaper
// for a capped one.
type Shaper struct {
	rateBps    int64         // bits per second; Unlimited means no cap
	queueLimit int64         // max queued bytes; <=0 with a rate means "1 message always fits"
	busyUntil  time.Duration // virtual time the uplink finishes its current backlog
}

// NewShaper returns a Shaper draining at rateBps bits per second with at
// most queueBytes of backlog. rateBps == Unlimited disables shaping
// entirely (messages depart immediately, nothing is dropped).
func NewShaper(rateBps int64, queueBytes int64) *Shaper {
	if rateBps < 0 {
		panic(fmt.Sprintf("shaping: negative rate %d", rateBps))
	}
	return &Shaper{rateBps: rateBps, queueLimit: queueBytes}
}

// Enqueue offers a message of size bytes to the uplink at virtual time now.
// It returns the time the last byte leaves the uplink and ok=true, or
// ok=false if the bounded queue would overflow and the message is dropped.
func (s *Shaper) Enqueue(now time.Duration, size int) (depart time.Duration, ok bool) {
	if size < 0 {
		panic(fmt.Sprintf("shaping: negative message size %d", size))
	}
	if s.rateBps == Unlimited {
		return now, true
	}
	if s.busyUntil < now {
		s.busyUntil = now
	}
	// Backlog currently queued, expressed in bytes still to serialize.
	backlogBytes := int64(float64(s.busyUntil-now) / float64(time.Second) * float64(s.rateBps) / 8)
	if backlogBytes > 0 && backlogBytes+int64(size) > s.queueLimit {
		return 0, false
	}
	serialization := time.Duration(float64(size*8) / float64(s.rateBps) * float64(time.Second))
	s.busyUntil += serialization
	return s.busyUntil, true
}

// Backlog reports the queueing delay a message enqueued at now would see
// before starting to serialize.
func (s *Shaper) Backlog(now time.Duration) time.Duration {
	if s.busyUntil <= now {
		return 0
	}
	return s.busyUntil - now
}
