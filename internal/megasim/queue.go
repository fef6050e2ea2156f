package megasim

import "time"

// scheduler is the per-shard event queue contract. Both engines — the
// radix heap and the calendar queue — maintain the strict (at, seq) total
// order, so for a fixed (seed, shards) pair the pop sequence, and with it
// the whole simulated run, is bit-identical across queue kinds.
//
// Simulated time only moves forward: every push lands at or after the
// timestamp of the last pop. The radix heap depends on it and panics on a
// push that breaks it; a peekAt moves no such bound, so work staged at a
// barrier may still land below a peeked minimum.
//
// A scheduler is owned by one shard goroutine; like all shard state it is
// touched by the supervisor only at quiescent points (peekAt between
// windows, len/peak from accessors). peekAt and pop may reorganize
// internal structure (the calendar queue advances its cursor and folds
// overflow in), which is why even the read-shaped calls are documented as
// owner-only.
type scheduler interface {
	// push inserts ev; the caller has already assigned ev.seq. The record
	// travels by value: a pointer handed through the interface escapes, and
	// one heap allocation per scheduled event costs far more than copying
	// 32 bytes of arguments.
	push(ev event)
	// pop removes and returns the earliest pending event by (at, seq).
	// Records hold no pointer, so a vacated slot is simply left behind.
	// Calling pop on an empty scheduler panics.
	pop() event
	// peekAt returns the timestamp of the earliest pending event.
	peekAt() (time.Duration, bool)
	// len reports how many events are pending.
	len() int
	// peak reports the pending-event high-water mark (ShardLoads'
	// HeapPeak, whatever the engine).
	peak() int
}

// newScheduler builds the queue kind the engine was configured with. New
// validated the kind, so the default arm is unreachable.
func newScheduler(kind QueueKind) scheduler {
	if kind == QueueCalendar {
		return newCalendarQueue()
	}
	return newRadixQueue()
}
