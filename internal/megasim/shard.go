package megasim

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"gossipstream/internal/stream"
	"gossipstream/internal/wire"
)

// Event kinds. Membership ticks get their own kind instead of a timer
// closure: 100k nodes shuffling once a second would otherwise allocate a
// closure per node per virtual second, and a crashed node's tick chain
// must stop without a cancellation handshake (the kind dispatch just sees
// the dead flag and lets the chain end).
//
// Node timers are the same cure for node logic: a TimerHandler's timers
// (core's gossip tick and retransmission timer) are flat (node, kind,
// arg) records instead of a closure plus a cancel closure per arm. Both
// kinds of timer die with their node: a departed node's are skipped
// uncounted, as a cancelled evTimer is.
const (
	evTimer uint8 = iota
	evDeliver
	evMemberTick
	evNodeTimer
)

// event is one scheduled occurrence, stored by value in the shard's
// scheduler: a timer, a message delivery, a membership tick or a node
// timer. The record is 32 bytes and holds no pointer — what an event
// carries lives in per-shard side tables it names by index (the message
// slab, the After closure table) — so both queue kinds are noscan memory:
// the collector never walks the pending set, sifting records pays no write
// barrier, and a popped slot needs no clearing.
type event struct {
	at   time.Duration
	seq  uint64
	from NodeID // evDeliver: the sender
	to   NodeID // evDeliver: the destination; the other kinds: the node
	// ref is the event's one argument: the message's index in the shard's
	// slab (evDeliver), the closure's slot in the shard's After table
	// (evTimer), or the handler's own arg (evNodeTimer).
	ref   uint32
	kind  uint8
	tkind uint8 // evNodeTimer only: the handler's timer kind
}

// payload is a message outside a record: what a sender hands to send, and
// the view of a record that deliver dispatches on. PROPOSE, REQUEST and a
// typed SERVE travel unboxed as their id list — a SERVE as the ids of the
// packets it stands for — and SHUFFLE as its entries laid out in the id
// list as (id, age) word pairs; a boxed SERVE, LEAVE and FEED-ME — the
// last two zero-size, so their box costs nothing — and any foreign Message
// type ride in other, boxed as they were sent.
type payload struct {
	kind  wire.Kind
	reply bool              // SHUFFLE: a reply
	width int32             // typed SERVE: payload bytes per packet, which its size is charged by
	ids   []stream.PacketID // PROPOSE, REQUEST, typed SERVE; SHUFFLE's word pairs
	other wire.Message
}

// unpack takes a boxed message apart into the payload the typed entry
// points build directly. A SHUFFLE is laid out in the shard's words
// scratch, good until the next unpack on the shard.
func (s *shard) unpack(msg wire.Message) payload {
	switch m := msg.(type) {
	case wire.Propose:
		return payload{kind: wire.KindPropose, ids: m.IDs}
	case wire.Request:
		return payload{kind: wire.KindRequest, ids: m.IDs}
	case *wire.Shuffle:
		return s.packShuffle(*m)
	case wire.Shuffle:
		return s.packShuffle(m)
	}
	return payload{kind: msg.Kind(), other: msg}
}

// packShuffle lays a SHUFFLE's entries out as (id, age) word pairs.
func (s *shard) packShuffle(m wire.Shuffle) payload {
	w := s.words[:0]
	for _, e := range m.Entries {
		//lint:pooled the scratch grows to the longest SHUFFLE the shard sends, then is reused
		w = append(w, stream.PacketID(e.ID), stream.PacketID(e.Age))
	}
	s.words = w
	return payload{kind: wire.KindShuffle, reply: m.Reply, ids: w}
}

// shuffle rebuilds the SHUFFLE a payload carries in the shard's scratch
// message, which the next delivery of a SHUFFLE on the shard overwrites.
func (s *shard) shuffle(p payload) *wire.Shuffle {
	e := s.shuf.Entries[:0]
	for i := 0; i+1 < len(p.ids); i += 2 {
		//lint:pooled the scratch grows to the longest SHUFFLE the shard delivers, then is reused
		e = append(e, wire.ShuffleEntry{ID: wire.NodeID(p.ids[i]), Age: uint16(p.ids[i+1])})
	}
	s.shuf = wire.Shuffle{Reply: p.reply, Entries: e}
	return &s.shuf
}

// message boxes the payload for a consumer that takes a wire.Message. The
// lists alias the payload's. A SHUFFLE has no boxed form here: deliver
// rebuilds it through shard.shuffle; nor has a typed SERVE, whose packets
// exist nowhere: only a TimerHandler is handed one.
func (p payload) message() wire.Message {
	switch {
	case p.other != nil:
		return p.other
	case p.kind == wire.KindRequest:
		return wire.Request{IDs: p.ids}
	case p.kind == wire.KindPropose:
		return wire.Propose{IDs: p.ids}
	}
	panic("megasim: a SERVE of ids was sent to a node whose handler is not a TimerHandler")
}

// wireSize is the WireSize of the message the payload stands for.
func (p payload) wireSize() int {
	switch {
	case p.other != nil:
		return p.other.WireSize()
	case p.kind == wire.KindServe:
		return wire.ServeSize(len(p.ids), int(p.width))
	case p.kind == wire.KindShuffle:
		return wire.Shuffle{}.WireSize() + wire.ShuffleEntryBytes*len(p.ids)/2
	default:
		return wire.Request{IDs: p.ids}.WireSize() // PROPOSE and REQUEST are laid out alike
	}
}

// inlineIDs is how many ids a record holds inline: nine in ten REQUESTs of
// a steady stream ask for at most seven packets (and four in ten PROPOSEs
// advertise no more), a SERVE of the paper's packets is one id, and nine
// ids fill the record's 64 bytes, one cache line. A longer list spills
// into a list kept beside the record (spillArena, or an outbox's region),
// and inl[0] holds its offset there.
const inlineIDs = 9

// msgRec is one in-flight message: the single representation a message has
// between send and its delivery or drop, in a shard's slab or — crossing
// shards — in an outbox. It owns its contents: fill copies ids and a
// SHUFFLE's word pairs in, inline when the list is short (a SHUFFLE of up
// to four entries), and its owner copies a longer list into its spill
// storage, so nothing the sender passed is referenced after send returns
// and a steady run recycles records without allocating. A boxed message
// rides in other; a boxed SERVE's pooled backing goes back to wire's pool
// when the slab record is released.
type msgRec struct {
	other wire.Message
	size  int32 // application bytes: charged to the uplink at send, counted received at delivery
	n     int32 // ids or words carried
	kind  wire.Kind
	reply bool                       // SHUFFLE: a reply (it takes a padding byte)
	inl   [inlineIDs]stream.PacketID // the ids, or the spilled list's offset in inl[0]
}

// fill sets the record to a copy of p, except for a list that does not fit
// inline: fill reports that it spills, and the caller stores it and puts
// its offset in inl[0].
func (r *msgRec) fill(size int32, p payload) (spills bool) {
	r.kind, r.reply, r.size, r.other = p.kind, p.reply, size, p.other
	r.n = int32(len(p.ids))
	if r.spilled() {
		return true
	}
	copy(r.inl[:], p.ids)
	return false
}

// spilled reports whether the record's list lives outside it.
func (r *msgRec) spilled() bool { return r.n > inlineIDs }

// payload views the record's contents; a spilled list is read from ids,
// the storage it was spilled into. The list aliases the record or that
// storage: it is good until the record is released, and a slab or arena
// that grows meanwhile leaves it reading the old copy, which nothing
// writes to.
func (r *msgRec) payload(ids []stream.PacketID) payload {
	p := payload{kind: r.kind, reply: r.reply, other: r.other}
	if off, end := uint32(r.inl[0]), uint32(r.inl[0])+uint32(r.n); r.spilled() {
		p.ids = ids[off:end:end]
	} else {
		p.ids = r.inl[:r.n] // a boxed message carries no list: n is zero
	}
	return p
}

// xmsg is a cross-shard delivery in transit through an outbox: a
// pointer-free header and the message in a record whose spilled list lives
// in the outbox's region.
type xmsg struct {
	at   time.Duration
	from NodeID
	to   NodeID
	rec  msgRec
}

// outbox buffers one window's deliveries from one shard to another. Lists
// that spill are appended to ids, which is reset with msgs once the
// destination has copied the messages in.
type outbox struct {
	msgs []xmsg
	ids  []stream.PacketID
}

// timerSlot holds the closure of one pending After timer. id tells the
// slot's current tenant from an earlier one, so a cancel function that
// outlives its timer finds nothing to cancel.
type timerSlot struct {
	fn func() // nil once cancelled
	id uint64
}

const (
	opRun uint8 = iota
	opMerge
	opStop
)

// spinPolls is a barrier waiter's polling budget before it parks: with a
// runtime.Gosched every 64 polls, ≈120 µs on a 2.1 GHz Xeon — more than 99%
// of a two-shard steady run's waits (p50 0.7 µs, p99 50 µs), yet short
// enough to give a core back soon. A count: megasim reads no clock.
const spinPolls = 1 << 16

// runningShards counts the shards of the engines running in the process;
// past GOMAXPROCS a polling waiter takes the core its peer needs.
var runningShards atomic.Int64

// waiter is one goroutine's parking spot at the phase barrier. To park it
// sets sleeping, re-checks its word and blocks on wake; a waker moves the
// word, then sends only if its CAS of sleeping to false succeeds. So no
// wake-up is lost or left over, and a late one (its waker was descheduled
// before the CAS) is caught by the loop's re-check.
type waiter struct {
	sleeping atomic.Bool
	wake     chan struct{}
}

// await returns once word reaches target, polling first when spin is set.
func (w *waiter) await(word *atomic.Uint64, target uint64, spin bool) {
	for i := 0; word.Load() != target; i++ {
		if spin && i < spinPolls {
			if i&63 == 63 {
				runtime.Gosched()
			}
			continue
		}
		w.sleeping.Store(true)
		if word.Load() == target && w.sleeping.CompareAndSwap(true, false) {
			return
		}
		<-w.wake
	}
}

// wakeup releases the waiter if it is parked or about to park.
func (w *waiter) wakeup() {
	if w.sleeping.CompareAndSwap(true, false) {
		w.wake <- struct{}{}
	}
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
	timers      uint64 // evTimer and evNodeTimer events executed
	delivers    uint64 // evDeliver events executed
	memberTicks uint64 // evMemberTick events executed
	windowsRun  uint64 // conservative windows run
	outboxOut   uint64 // cross-shard messages handed to other shards
	outboxIn    uint64 // cross-shard messages merged in
	staleDrops  uint64 // deliveries addressed to recycled (stale) handles

	// msgs is the message slab: every delivery pending in q names its
	// message here by index. msgFree stacks the released records, so a
	// steady run cycles through the same few without allocating; ids holds
	// the lists too long to fit in them.
	msgs    []msgRec
	msgFree []uint32
	ids     spillArena

	// The SHUFFLE scratch: unpack lays one out in words, deliver rebuilds
	// one in shuf.
	words []stream.PacketID
	shuf  wire.Shuffle

	// afters is the After closure table, afterFree its free slots;
	// nextTimer mints the ids that tell a slot's tenants apart.
	afters    []timerSlot
	afterFree []uint32
	nextTimer uint64

	// outbox[d] buffers deliveries destined for shard d during the current
	// window; shard d drains (and resets) it during the merge phase, so
	// ownership alternates across the barrier. Capacity is reused.
	outbox []outbox

	// park is where the shard's worker waits for the next epoch.
	park waiter
}

func newShard(e *Engine, id int, rng *rand.Rand) *shard {
	return &shard{
		id:     id,
		eng:    e,
		rng:    rng,
		q:      newScheduler(e.cfg.Queue),
		outbox: make([]outbox, e.cfg.Shards),
		park:   waiter{wake: make(chan struct{}, 1)},
	}
}

// work is the goroutine of shards 1…n−1: it runs each published phase.
func (s *shard) work() {
	e := s.eng
	defer e.workerWg.Done()
	for ep := uint64(1); ; ep++ {
		s.park.await(&e.epoch, ep, runningShards.Load() <= e.procs)
		if e.op == opStop {
			return
		}
		s.runPhase(e.op, e.opT)
		if e.done.Add(1) == ep*uint64(len(e.shards)-1) {
			e.sup.wakeup()
		}
	}
}

// runPhase executes one phase, timed into ShardBusyNS under a clock.
func (s *shard) runPhase(op uint8, t time.Duration) {
	var t0 int64
	if s.eng.wallNow != nil {
		t0 = s.eng.wallNow()
	}
	if op == opRun {
		s.runWindow(t)
	} else {
		s.mergeInbound()
	}
	if s.eng.wallNow != nil {
		s.eng.wall.ShardBusyNS[s.id] += s.eng.wallNow() - t0
	}
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
			fn := s.afters[ev.ref].fn
			s.afters[ev.ref] = timerSlot{}
			//lint:pooled the free list is bounded by the table it indexes
			s.afterFree = append(s.afterFree, ev.ref)
			if fn == nil || s.eng.liveNode(ev.to) == nil {
				continue // cancelled, or its node departed: skipped uncounted
			}
			s.now = ev.at
			s.fired++
			s.timers++
			fn()
		case evDeliver:
			s.now = ev.at
			s.fired++
			s.delivers++
			s.eng.deliver(s, &ev)
			// Delivered or dropped, the message has had the one outcome every
			// send ends in.
			s.releaseMsg(ev.ref)
		case evMemberTick:
			s.now = ev.at
			s.fired++
			s.memberTicks++
			s.eng.memberTick(s, ev.to)
		case evNodeTimer:
			nd := s.eng.liveNode(ev.to)
			if nd == nil {
				continue // the node departed: skipped uncounted
			}
			s.now = ev.at
			s.fired++
			s.timers++
			nd.flat.OnTimer(ev.tkind, ev.ref)
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
		ob := &src.outbox[s.id]
		if len(ob.msgs) == 0 {
			continue
		}
		s.outboxIn += uint64(len(ob.msgs))
		for i := range ob.msgs {
			m := &ob.msgs[i]
			s.pushDelivery(m.at, m.from, m.to, m.rec.size, m.rec.payload(ob.ids))
			m.rec.other = nil // the slab record holds the message now
		}
		ob.msgs, ob.ids = ob.msgs[:0], ob.ids[:0]
	}
}

// nextAt returns the timestamp of the earliest pending event.
func (s *shard) nextAt() (time.Duration, bool) {
	return s.q.peekAt()
}

// after schedules fn at now+d on this shard for node and returns a
// cancel func. The closure waits in the After table, named by the event's
// ref. Cancelling empties the slot and the entry is skipped when popped, as
// it is once the node has departed; cancelling twice, or after the timer
// fired, finds another tenant's id or none and does nothing.
func (s *shard) after(d time.Duration, node NodeID, fn func()) func() {
	if d < 0 {
		d = 0
	}
	s.nextTimer++
	id := s.nextTimer
	var slot uint32
	if n := len(s.afterFree); n > 0 {
		slot = s.afterFree[n-1]
		s.afterFree = s.afterFree[:n-1]
	} else {
		slot = uint32(len(s.afters))
		s.afters = append(s.afters, timerSlot{})
	}
	s.afters[slot] = timerSlot{fn: fn, id: id}
	s.push(event{at: s.now + d, to: node, ref: slot, kind: evTimer})
	return func() {
		if t := &s.afters[slot]; t.id == id {
			t.fn = nil
		}
	}
}

// afterNode schedules the node's TimerHandler.OnTimer(kind, arg) at now+d
// as one flat record. It draws a sequence number exactly as after does, so
// a run schedules the same (at, seq) stream whichever of the two a node's
// logic arms its timers through.
func (s *shard) afterNode(d time.Duration, id NodeID, kind uint8, arg uint32) {
	if d < 0 {
		d = 0
	}
	s.push(event{at: s.now + d, to: id, ref: arg, kind: evNodeTimer, tkind: kind})
}

// pushDelivery copies the message into a slab record and schedules its
// delivery at the given time.
func (s *shard) pushDelivery(at time.Duration, from, to NodeID, size int32, p payload) {
	var i uint32
	if n := len(s.msgFree); n > 0 {
		i = s.msgFree[n-1]
		s.msgFree = s.msgFree[:n-1]
	} else {
		i = uint32(len(s.msgs))
		//lint:pooled the slab grows to the peak of messages in flight, then recycles through msgFree
		s.msgs = append(s.msgs, msgRec{})
	}
	r := &s.msgs[i]
	if r.fill(size, p) {
		r.inl[0] = stream.PacketID(s.ids.put(p.ids))
	}
	s.push(event{at: at, from: from, to: to, ref: i, kind: evDeliver})
}

// releaseMsg returns slab record i, delivered or dropped, and its spilled
// list to their free lists, and a boxed SERVE's backing to wire's pool; a
// free record references no message. The handler may have sent and grown
// the slab, so the record is found again by index.
func (s *shard) releaseMsg(i uint32) {
	r := &s.msgs[i]
	if r.spilled() {
		s.ids.release(uint32(r.inl[0]), r.n)
	}
	if serve, ok := r.other.(wire.Serve); ok {
		wire.RecycleServe(serve)
	}
	r.other = nil
	//lint:pooled the free list is bounded by the slab it indexes
	s.msgFree = append(s.msgFree, i)
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
