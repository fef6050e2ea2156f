package megasim

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"gossipstream/internal/slab"
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
//
// A message is delivered by one of two kinds, chosen once when its delivery
// is pushed: evDeliverID when it fits the event itself — one id, no boxed
// message, at most 65,535 application bytes, which takes every SERVE of the
// paper's packets and most of a stream's deliveries — and evDeliver, which
// names a slab record, for the rest.
const (
	evTimer uint8 = iota
	evDeliver
	evDeliverID
	evMemberTick
	evNodeTimer
)

// event is one scheduled occurrence, stored by value in the shard's
// queue: a timer, a message delivery, a membership tick or a node timer.
// The record is 32 bytes and holds no pointer — what an event carries
// beyond its own fields lives in per-shard side tables it names by index
// (the message slab, the After closure table) — so the queue's chunks are
// noscan memory: the collector never walks the pending set, moving records
// pays no write barrier, and a popped slot needs no clearing. size takes
// the record's last two bytes, which would otherwise be padding; eight
// bytes of padding stay, so that a record is half a cache line and a
// queue chunk a kilobyte.
//
// from is the event's origin, which the queue breaks same-instant ties by:
// the sender of a delivery, the node itself for the other kinds.
type event struct {
	at   time.Duration
	_    [8]byte
	from NodeID // deliveries: the sender; the other kinds: the node
	to   NodeID // deliveries: the destination; the other kinds: the node
	// ref is the event's one argument: the message's one id (evDeliverID),
	// its index in the shard's slab (evDeliver), the closure's slot in the
	// shard's After table (evTimer), or the handler's own arg
	// (evNodeTimer).
	ref  uint32
	kind uint8
	// tkind is the handler's timer kind (evNodeTimer) or the message's
	// wire.Kind (evDeliverID).
	tkind uint8
	size  uint16 // evDeliverID: the message's application bytes
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
// advertise no more), and nine ids fill the record's 64 bytes, one cache
// line. (A message of one id, such as a SERVE of the paper's packets, takes
// no record at all: it rides in its event.) A longer list spills
// into a list kept beside the record (a block of the shard's spill pool,
// or an outbox's region), and inl[0] holds its handle or offset there. A
// PROPOSE's fan-out spills once per destination shard, not once per
// partner: its sends share one record there.
const inlineIDs = 9

// msgRec is one in-flight message: the single representation a message
// that does not ride in its event has between send and its delivery or
// drop, in a shard's slab, and that of every message crossing shards
// inside a window, in an outbox until the merge. It owns its contents:
// fill copies ids and a SHUFFLE's word pairs in, inline when the list is
// short (a SHUFFLE of up to four entries), and its owner copies a longer
// list into its spill storage, so nothing the sender passed is referenced
// after send returns and a steady run recycles records without
// allocating. A boxed message
// rides in other; a boxed SERVE's pooled backing goes back to wire's pool
// when the slab record is released.
//
// One record stands for every delivery of one fan-out bound for its shard:
// a send of the same unboxed message as the last record its store filled,
// while a delivery still names that record, names it again (reuse), and
// refs counts the deliveries that name it. The record is released with the
// last of them, so a PROPOSE to seven partners takes one record, and one
// spill block, per destination shard.
type msgRec struct {
	other wire.Message
	size  int32 // application bytes: charged to the uplink at send, counted received at delivery
	n     int32 // ids or words carried
	kind  wire.Kind
	reply bool                       // SHUFFLE: a reply (it takes a padding byte)
	refs  uint16                     // pending deliveries that name the record (the last two padding bytes)
	inl   [inlineIDs]stream.PacketID // the ids, or the spilled list's offset in inl[0]
}

// fill sets the record to a copy of p, named by one delivery, except for a
// list that does not fit inline: fill reports that it spills, and the
// caller stores it and puts its offset in inl[0].
func (r *msgRec) fill(size int32, p payload) (spills bool) {
	r.kind, r.reply, r.size, r.other, r.refs = p.kind, p.reply, size, p.other, 1
	r.n = int32(len(p.ids))
	if r.spilled() {
		return true
	}
	copy(r.inl[:], p.ids)
	return false
}

// spilled reports whether the record's list lives outside it.
func (r *msgRec) spilled() bool { return r.n > inlineIDs }

// reuse names the record for one more delivery, of p at size, and reports
// whether it did: it does when the record is held by a delivery and has a
// reference to spare, and holds, with list as its list, the same unboxed
// message. What the deliveries of one record differ in — sender, receiver,
// instant — lives in their events. A boxed message is never shared: its
// record owns what it boxes.
//
//lint:hot lets a fan-out's sends share the record filled last, once per send
func (r *msgRec) reuse(list []stream.PacketID, size int32, p payload) bool {
	if r.refs == 0 || r.refs == math.MaxUint16 || p.other != nil || r.other != nil ||
		r.kind != p.kind || r.reply != p.reply || r.size != size || !slices.Equal(list, p.ids) {
		return false
	}
	r.refs++
	return true
}

// payload views the record's contents; spill is the list of a record
// that spilled, read by its owner from where it was spilled to. The list
// aliases the record or that storage: it is good until the record is
// released.
func (r *msgRec) payload(spill []stream.PacketID) payload {
	p := payload{kind: r.kind, reply: r.reply, other: r.other}
	if r.spilled() {
		p.ids = spill
	} else {
		p.ids = r.inl[:r.n] // a boxed message carries no list: n is zero
	}
	return p
}

// payload views a slab record of the shard, its spilled list read from the
// spill pool.
func (s *shard) payload(r *msgRec) payload {
	var spill []stream.PacketID
	if r.spilled() {
		spill = s.ids.Block(uint32(r.inl[0]), int(r.n))
	}
	return r.payload(spill)
}

// payload views a record of the outbox, its spilled list read from the
// outbox's region.
func (ob *outbox) payload(r *msgRec) payload {
	var spill []stream.PacketID
	if r.spilled() {
		off, end := int(r.inl[0]), int(r.inl[0])+int(r.n)
		spill = ob.ids[off:end:end]
	}
	return r.payload(spill)
}

// spillLen is the size of the block a spilled list of n ids takes: the
// power of two at or above n, so that the blocks of a shard's spill pool
// come in six sizes, 16 to 512 ids — the last a full PROPOSE's or
// REQUEST's (wire.MaxIDsPerMessage ids; a SERVE names fewer packets) — and
// a freed block fits the next list of its class.
func spillLen(n int) int { return 1 << bits.Len(uint(n-1)) }

// outbox buffers one window's deliveries from one shard to another as the
// events that will deliver them, in the senders' program order: a one-id
// message in its event (evDeliverID), any other in a record of recs that
// the event names, one record for every delivery of a fan-out bound for the
// destination shard, as in a slab. Lists that spill are appended to ids.
// All three are reset once the destination has copied the messages in, each
// record into its slab once.
type outbox struct {
	events []event
	recs   []msgRec
	ids    []stream.PacketID
}

// push appends the delivery of p to the outbox.
//
//lint:hot queues every cross-shard send made inside a window
func (ob *outbox) push(at time.Duration, from, to NodeID, size int32, p payload) {
	ev, carried := delivery(at, from, to, size, p)
	if !carried {
		ev.ref = ob.store(size, p)
	}
	//lint:pooled outbox capacity is reused across windows; mergeInbound resets it to [:0]
	ob.events = append(ob.events, ev)
}

// store puts p in an outbox record and returns the record's index: the
// record filled last when it can be reused for p, else a new one, its
// list, if it spills, appended to the outbox's region. Records are only
// dropped with the whole outbox, so the last one is always held.
//
//lint:hot stores a cross-shard send's message, once per fan-out per destination shard
func (ob *outbox) store(size int32, p payload) uint32 {
	i := uint32(len(ob.recs))
	if i > 0 {
		if r := &ob.recs[i-1]; r.reuse(ob.payload(r).ids, size, p) {
			return i - 1
		}
	}
	//lint:pooled the records' capacity is reused across windows, reset with the outbox
	ob.recs = append(ob.recs, msgRec{})
	if r := &ob.recs[i]; r.fill(size, p) {
		r.inl[0] = stream.PacketID(len(ob.ids))
		//lint:pooled the region's capacity is reused across windows, reset with the outbox
		ob.ids = append(ob.ids, p.ids...)
	}
	return i
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

// shard owns a partition of the nodes: their scheduler and pending
// events. Between barriers only the shard's own goroutine touches its
// state.
type shard struct {
	id  int
	eng *Engine
	now time.Duration

	// q is the event queue, popped by time, then origin, then push order.
	q *radixQueue

	// Load counters, flat increments on the per-event path (hotalloc
	// audits this file) and read only at quiescent points (ShardLoads).
	// Each executed event counts once, in one of the first three (fired);
	// the pending-event high-water mark lives in the queue (q.peak).
	timers      uint64 // evTimer and evNodeTimer events executed
	delivers    uint64 // evDeliver and evDeliverID events executed
	memberTicks uint64 // evMemberTick events executed
	windowsRun  uint64 // conservative windows run
	outboxOut   uint64 // cross-shard messages sent inside a window, through an outbox
	outboxIn    uint64 // cross-shard messages merged in from outboxes
	staleDrops  uint64 // deliveries addressed to recycled (stale) handles

	// msgs is the message slab: every evDeliver pending in q names its
	// message here by index. msgFree stacks the released records, so a
	// steady run cycles through the same few without allocating; ids lends
	// blocks to the lists too long to fit in them. All three grow by
	// chunks, without copying, to the peak of messages in flight. last
	// is the record the shard's sends filled last, which the next send of
	// the same fan-out reuses.
	msgs    slab.Table[msgRec]
	msgFree slab.Table[uint32]
	ids     slab.Pool[stream.PacketID]
	last    uint32

	// one is the list an evDeliverID's id is handed over in, valid for
	// the delivery's call only.
	one [1]stream.PacketID

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

// The chunk sizes of a shard's message store, as shifts: 128 KB of
// records, so that a 2,000-node run's peak of ≈29k messages in flight
// takes fifteen chunks and a 230-node one a chunk or two; 16 KB of free
// slots; and 64 KB of spilled ids.
const (
	msgShift     = 11
	msgFreeShift = 12
	spillShift   = 14
)

func newShard(e *Engine, id int) *shard {
	return &shard{
		id:      id,
		eng:     e,
		q:       newRadixQueue(),
		msgs:    slab.NewTable[msgRec](msgShift),
		msgFree: slab.NewTable[uint32](msgFreeShift),
		ids:     slab.NewPool[stream.PacketID](spillShift),
		outbox:  make([]outbox, e.cfg.Shards),
		park:    waiter{wake: make(chan struct{}, 1)},
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
//
//lint:hot the shard loop executes every simulated event
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
			s.timers++
			fn()
		case evDeliver, evDeliverID:
			s.now = ev.at
			s.delivers++
			s.eng.deliver(s, &ev)
			// Delivered or dropped, the message has had the one outcome every
			// send ends in.
			if ev.kind == evDeliver {
				s.releaseMsg(ev.ref)
			}
		case evMemberTick:
			s.now = ev.at
			s.memberTicks++
			s.eng.memberTick(s, ev.to)
		case evNodeTimer:
			nd := s.eng.liveNode(ev.to)
			if nd == nil {
				continue // the node departed: skipped uncounted
			}
			s.now = ev.at
			s.timers++
			nd.flat.OnTimer(ev.tkind, ev.ref)
		}
	}
}

// fired reports how many events the shard has executed.
func (s *shard) fired() uint64 { return s.timers + s.delivers + s.memberTicks }

// mergeInbound folds deliveries addressed to this shard into its queue.
// Each outbox keeps its senders' program order, which is all the queue's
// tie-break by origin needs: the order the outboxes are visited in never
// shows. An outbox record goes into the slab once, with its count of
// deliveries: the events that name a record follow one another among the
// outbox's evDeliver events, since a record is only ever reused by the
// sends right after the one that filled it.
//
//lint:hot queues every cross-shard delivery sent inside a window
func (s *shard) mergeInbound() {
	for _, src := range s.eng.shards {
		ob := &src.outbox[s.id]
		if len(ob.events) == 0 {
			continue
		}
		s.outboxIn += uint64(len(ob.events))
		copied, ref := -1, uint32(0) // the outbox record copied in last, and its slab index
		for _, ev := range ob.events {
			if ev.kind == evDeliver {
				if int(ev.ref) != copied {
					copied = int(ev.ref)
					ref = s.adopt(ob, &ob.recs[copied])
				}
				ev.ref = ref
			}
			s.q.push(ev)
		}
		ob.events, ob.recs, ob.ids = ob.events[:0], ob.recs[:0], ob.ids[:0]
	}
}

// adopt copies outbox record r into a slab record, with the deliveries
// that name it, and returns the slab record's index; the slab record holds
// r's boxed message from then on.
//
//lint:hot the merge copies every outbox record into the slab once
func (s *shard) adopt(ob *outbox, r *msgRec) uint32 {
	i := s.newRec(r.size, ob.payload(r))
	s.msgs.At(int(i)).refs = r.refs
	r.other = nil
	return i
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
	s.q.push(event{at: s.now + d, from: node, to: node, ref: slot, kind: evTimer})
	return func() {
		if t := &s.afters[slot]; t.id == id {
			t.fn = nil
		}
	}
}

// afterNode schedules the node's TimerHandler.OnTimer(kind, arg) at now+d
// as one flat record, keyed as after keys its timer, so a run schedules the
// same stream whichever of the two a node's logic arms its timers through.
func (s *shard) afterNode(d time.Duration, id NodeID, kind uint8, arg uint32) {
	if d < 0 {
		d = 0
	}
	s.q.push(event{at: s.now + d, from: id, to: id, ref: arg, kind: evNodeTimer, tkind: kind})
}

// delivery is the event that delivers p at at, and whether the message
// rides in it (evDeliverID): one id, not boxed, at most 65,535 application
// bytes. Otherwise the event is an evDeliver whose ref the caller sets to
// the message's record. Every delivery a shard queues or an outbox holds
// is shaped here, so a message takes the same form whichever shard sent
// it.
//
//lint:hot builds the event every delivery takes, once per send
func delivery(at time.Duration, from, to NodeID, size int32, p payload) (ev event, carried bool) {
	if p.other == nil && len(p.ids) == 1 && uint32(size) <= math.MaxUint16 {
		// A SHUFFLE is never one id: its words come in (id, age) pairs.
		return event{at: at, from: from, to: to, ref: uint32(p.ids[0]), kind: evDeliverID, tkind: uint8(p.kind), size: uint16(size)}, true
	}
	return event{at: at, from: from, to: to, kind: evDeliver}, false
}

// pushDelivery schedules the message's delivery at the given time: in the
// event itself when it fits there, else in a slab record (store). Every
// delivery a shard queues comes through here but those merged from
// outboxes: its own sends, and sends made on other shards while no window
// runs.
func (s *shard) pushDelivery(at time.Duration, from, to NodeID, size int32, p payload) {
	ev, carried := delivery(at, from, to, size, p)
	if !carried {
		ev.ref = s.store(size, p)
	}
	s.q.push(ev)
}

// store puts p in a slab record and returns its index: the record the
// shard filled last when it can be reused for p, else a new one. A freed
// record has no reference, so reuse passes it by.
//
//lint:hot stores a send's message in the slab, once per fan-out per destination shard
func (s *shard) store(size int32, p payload) uint32 {
	if s.msgs.Len() > 0 {
		if r := s.msgs.At(int(s.last)); r.reuse(s.payload(r).ids, size, p) {
			return s.last
		}
	}
	s.last = s.newRec(size, p)
	return s.last
}

// newRec fills a free slab record with p at size, its list spilled into a
// block of the pool if it does not fit inline, and returns its index.
//
//lint:hot fills a fresh slab record, once per fan-out per destination shard
func (s *shard) newRec(size int32, p payload) uint32 {
	var i uint32
	if s.msgFree.Len() > 0 {
		i = s.msgFree.Pop()
	} else {
		i = uint32(s.msgs.Push(msgRec{}))
	}
	if r := s.msgs.At(int(i)); r.fill(size, p) {
		h, b := s.ids.Get(spillLen(len(p.ids)))
		copy(b, p.ids)
		r.inl[0] = stream.PacketID(h)
	}
	return i
}

// releaseMsg lets go of one delivery's reference to slab record i,
// delivered or dropped. With the last, it returns the record and its
// spilled list to their free lists, and a boxed SERVE's backing to wire's
// pool; a free record references no message.
func (s *shard) releaseMsg(i uint32) {
	r := s.msgs.At(int(i))
	if r.refs--; r.refs > 0 {
		return
	}
	if r.spilled() {
		s.ids.Put(uint32(r.inl[0]), spillLen(int(r.n)))
	}
	if serve, ok := r.other.(wire.Serve); ok {
		wire.RecycleServe(serve)
	}
	r.other = nil
	s.msgFree.Push(i)
}

// pushMemberTick schedules the node's next membership tick.
func (s *shard) pushMemberTick(at time.Duration, id NodeID) {
	s.q.push(event{at: at, from: id, to: id, kind: evMemberTick})
}
