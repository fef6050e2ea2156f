package megasim

import (
	"math/rand"
	"time"

	"gossipstream/internal/wire"
)

// Event kinds. Membership ticks get their own kind instead of a timer
// closure: 100k nodes shuffling once a second would otherwise allocate a
// closure per node per virtual second, and a crashed node's tick chain
// must stop without a cancellation handshake (the kind dispatch just sees
// the dead flag and lets the chain end).
//
// Node timers are the same cure for node logic: a TimerHandler's timers
// (core's gossip ticks and retransmission checks) are flat (node, kind,
// arg) records instead of a closure plus a cancel closure per arm, and
// they die with the node exactly as a cancelled evTimer would.
const (
	evTimer uint8 = iota
	evDeliver
	evMemberTick
	evNodeTimer
)

// event is one scheduled occurrence, stored by value in the shard's
// scheduler: a timer, a message delivery, a membership tick or a node
// timer (the node id rides in to). Compared to simnet's
// closure-per-message representation this is a single flat record, so the
// per-message cost is a queue slot, not two heap allocations — a property
// both queue kinds preserve.
type event struct {
	at      time.Duration
	seq     uint64
	timerID uint64
	from    NodeID
	to      NodeID
	size    int32 // evDeliver: payload bytes; evNodeTimer: the handler's arg
	kind    uint8
	tkind   uint8        // evNodeTimer only: the handler's timer kind
	fn      func()       // evTimer only
	msg     wire.Message // evDeliver only
}

// xmsg is a cross-shard delivery in transit through an outbox.
type xmsg struct {
	at   time.Duration
	from NodeID
	to   NodeID
	size int32
	msg  wire.Message
}

const (
	opRun uint8 = iota
	opMerge
)

type shardCmd struct {
	op uint8
	t  time.Duration
}

// shard owns a partition of the nodes: their scheduler, random stream,
// and pending events. Between barriers only the shard's own goroutine
// touches its state.
type shard struct {
	id  int
	eng *Engine
	rng *rand.Rand
	now time.Duration

	// q is the event scheduler — heap or calendar per Config.Queue. Both
	// maintain the same strict (at, seq) order, so the queue kind never
	// changes a run's results, only its wall time.
	q     scheduler
	seq   uint64
	fired uint64

	// Load counters, flat increments on the per-event path (hotalloc
	// audits this file) and read only at quiescent points (ShardLoads).
	// The pending-event high-water mark lives in the scheduler (q.peak).
	timers      uint64 // evTimer events executed
	delivers    uint64 // evDeliver events executed
	memberTicks uint64 // evMemberTick events executed
	windowsRun  uint64 // conservative windows run
	outboxOut   uint64 // cross-shard messages handed to other shards
	outboxIn    uint64 // cross-shard messages merged in
	staleDrops  uint64 // deliveries addressed to recycled (stale) handles

	nextTimer uint64
	cancelled map[uint64]struct{}

	// outbox[d] buffers deliveries destined for shard d during the current
	// window; shard d drains (and resets) it during the merge phase, so
	// ownership alternates across the barrier. Capacity is reused.
	outbox [][]xmsg

	cmds chan shardCmd
}

func newShard(e *Engine, id int, rng *rand.Rand) *shard {
	return &shard{
		id:        id,
		eng:       e,
		rng:       rng,
		q:         newScheduler(e.cfg.Queue),
		cancelled: make(map[uint64]struct{}),
		outbox:    make([][]xmsg, e.cfg.Shards),
		cmds:      make(chan shardCmd, 1),
	}
}

// work is the shard goroutine: it executes barrier-delimited phases until
// the command channel closes.
func (s *shard) work() {
	for cmd := range s.cmds {
		switch cmd.op {
		case opRun:
			s.runWindow(cmd.t)
		case opMerge:
			s.mergeInbound()
		}
		s.eng.phaseWg.Done()
	}
	s.eng.workerWg.Done()
}

// runWindow executes every local event with timestamp strictly before end.
// Events scheduled mid-window (timers, same-shard deliveries, membership
// ticks) run in the same window when they fall before end.
func (s *shard) runWindow(end time.Duration) {
	s.windowsRun++
	for {
		at, ok := s.q.peekAt()
		if !ok || at >= end {
			break
		}
		ev := s.q.pop()
		switch ev.kind {
		case evTimer:
			if len(s.cancelled) > 0 {
				if _, dead := s.cancelled[ev.timerID]; dead {
					delete(s.cancelled, ev.timerID)
					continue
				}
			}
			s.now = ev.at
			s.fired++
			s.timers++
			ev.fn()
		case evDeliver:
			s.now = ev.at
			s.fired++
			s.delivers++
			s.eng.deliver(s, &ev)
		case evMemberTick:
			s.now = ev.at
			s.fired++
			s.memberTicks++
			s.eng.memberTick(s, ev.to)
		case evNodeTimer:
			nd := &s.eng.nodes[uint32(ev.to)&slotMask]
			if int(nd.gen) != int(uint32(ev.to)>>slotBits) || !nd.alive {
				// The node departed: its timers are void, skipped uncounted
				// like the cancelled evTimers they replace.
				continue
			}
			s.now = ev.at
			s.fired++
			s.timers++
			nd.timer.OnTimer(ev.tkind, uint32(ev.size))
		}
	}
}

// mergeInbound folds deliveries addressed to this shard into its
// scheduler.
// Sources are visited in shard order and each outbox preserves send
// order, so the sequence numbers assigned here — the tie-break for
// same-instant events — are independent of goroutine interleaving.
func (s *shard) mergeInbound() {
	for _, src := range s.eng.shards {
		q := src.outbox[s.id]
		if len(q) == 0 {
			continue
		}
		s.outboxIn += uint64(len(q))
		for i := range q {
			m := &q[i]
			s.pushDelivery(m.at, m.from, m.to, m.size, m.msg)
		}
		clear(q) // drop message references so capacity reuse does not pin them
		src.outbox[s.id] = q[:0]
	}
}

// nextAt returns the timestamp of the earliest pending event.
func (s *shard) nextAt() (time.Duration, bool) {
	return s.q.peekAt()
}

// after schedules fn at now+d on this shard and returns a cancel func.
// Cancellation is lazy: the timer id is tombstoned and the entry skipped
// when popped. Cancelling twice is harmless (the tombstone is a set
// entry); like any cancel, it must not be called after the timer fired.
func (s *shard) after(d time.Duration, fn func()) func() {
	if d < 0 {
		d = 0
	}
	id := s.nextTimer
	s.nextTimer++
	s.push(event{at: s.now + d, timerID: id, kind: evTimer, fn: fn})
	return func() { s.cancelled[id] = struct{}{} }
}

// afterNode schedules the node's TimerHandler.OnTimer(kind, arg) at now+d
// as one flat record. It draws a timer id and a sequence number exactly as
// after does, so a run schedules the same (at, seq) stream whichever of
// the two a node's logic arms its timers through.
func (s *shard) afterNode(d time.Duration, id NodeID, kind uint8, arg uint32) {
	if d < 0 {
		d = 0
	}
	timerID := s.nextTimer
	s.nextTimer++
	s.push(event{at: s.now + d, timerID: timerID, to: id, size: int32(arg), kind: evNodeTimer, tkind: kind})
}

// pushDelivery schedules a message delivery at the given time.
func (s *shard) pushDelivery(at time.Duration, from, to NodeID, size int32, msg wire.Message) {
	s.push(event{at: at, from: from, to: to, size: size, kind: evDeliver, msg: msg})
}

// pushMemberTick schedules the node's next membership tick.
func (s *shard) pushMemberTick(at time.Duration, id NodeID) {
	s.push(event{at: at, to: id, kind: evMemberTick})
}

// push inserts ev into the shard's scheduler, assigning its sequence
// number. Sequence assignment stays here — outside the scheduler — so
// both queue kinds see identical (at, seq) streams and the merge-order
// determinism argument is independent of the queue implementation.
func (s *shard) push(ev event) {
	ev.seq = s.seq
	s.seq++
	s.q.push(ev)
}
