// Package shaping models constrained upload links.
//
// The paper ("Stretching Gossip with Live Streaming", §4) caps each node's
// upload bandwidth and notes that the limiter "implements a bandwidth
// throttling mechanism" to limit loss from bursts. This package provides
// exactly that mechanism in two forms:
//
//   - Shaper: an O(1) virtual-queue model for the discrete-event simulator.
//     A message of size S bits occupies the uplink for S/rate seconds;
//     bursts queue up to a bound (throttling) and overflow is dropped
//     (drop-tail), which is the congestion-loss mode the paper observes at
//     high fanouts.
//   - Bucket: a token bucket for the real-time UDP driver, pacing actual
//     sends to the same configured rate.
package shaping

import (
	"fmt"
	"time"
)

// Unlimited configures a Shaper or Bucket with no rate cap.
const Unlimited int64 = 0

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

// Bucket is a token bucket for pacing real sends. Tokens are bytes; the
// bucket refills at rateBps/8 bytes per second up to burst bytes.
//
// Bucket is not safe for concurrent use; the rt driver guards it with the
// node mutex.
type Bucket struct {
	rateBps int64
	burst   int64
	tokens  float64
	last    time.Time
}

// NewBucket returns a token bucket with the given rate and burst. A rate of
// Unlimited always admits immediately.
func NewBucket(rateBps, burst int64, now time.Time) *Bucket {
	if burst <= 0 {
		burst = 64 * 1024
	}
	return &Bucket{rateBps: rateBps, burst: burst, tokens: float64(burst), last: now}
}

// Take consumes size bytes of tokens, returning how long the caller must
// wait before the send conforms to the configured rate. A zero return means
// send immediately.
func (b *Bucket) Take(now time.Time, size int) time.Duration {
	if b.rateBps == Unlimited {
		return 0
	}
	rate := float64(b.rateBps) / 8 // bytes per second
	elapsed := now.Sub(b.last).Seconds()
	if elapsed > 0 {
		b.tokens += elapsed * rate
		if b.tokens > float64(b.burst) {
			b.tokens = float64(b.burst)
		}
		b.last = now
	}
	b.tokens -= float64(size)
	if b.tokens >= 0 {
		return 0
	}
	return time.Duration(-b.tokens / rate * float64(time.Second))
}
