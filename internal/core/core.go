// Package core implements the paper's contribution: the three-phase
// gossip-based content-dissemination protocol of Algorithm 1
// (push ids → request → push payload), specialized for live streaming.
//
// Protocol summary (paper §2):
//
//  1. Every gossipPeriod (200 ms), a node sends a PROPOSE carrying the ids
//     of packets delivered since its previous round to f partners chosen by
//     selectNodes — then forgets them (infect-and-die: each id is proposed
//     in exactly one round).
//  2. On PROPOSE, a node REQUESTs the ids it has not requested before
//     (first proposer wins; duplicates are suppressed so payloads flow at
//     most once toward each node).
//  3. On REQUEST, a node SERVEs the payloads it holds.
//
// Retransmission (lines 14–15/25): after requesting, a node arms a timer;
// if some requested ids are still missing when it fires, they are requested
// again from a remembered proposer, up to MaxRequests times per id. The
// pseudocode replays the PROPOSE verbatim; we disambiguate by re-requesting
// from a random recorded proposer of the id, which matches the paper's
// implementation behaviour (recovering from congested or dead servers).
//
// Proactiveness (paper §3) is delegated to internal/member: the view
// refresh rate X and the feed-me rate Y.
//
// The engine is transport-agnostic: all interaction with time and the
// network goes through Env, implemented by the discrete-event simulator
// (internal/experiment) and the real-time UDP driver (internal/rt).
//
// # Allocation
//
// What a peer keeps per stream id is about three bits: one "known" bit
// (delivered or requested) and the receiver's delivery bit with its
// per-window count. Over the flat route that is all: a SERVE there is the
// ids of its packets, so a peer serves an id exactly when it has been
// delivered it, and neither it nor the source ever holds a packet. Only a
// peer on the generic route, whose SERVEs carry bytes, keeps the packets
// it is delivered — in a table of its own, a pointer per stream id,
// allocated when it starts on that route — and the source there serves
// from stream.Source, which builds them. Pull state
// exists only while an id is being retried: a by-value record in a
// per-peer slab, found by id through a small open-addressing index whose
// population is the ids in flight, not the stream. Retransmission batches
// live in a second slab — a batch's ids are a list linked through their
// request records, and free records and batches chain through the same
// links — and the gossip tick and the retransmission timer are
// (kind, arg) timer records rather than closures. Retransmission deadlines
// never leave the peer: a batch records when it is due, a SERVE that
// delivers its last outstanding id frees it on the spot, and the engine
// holds one retransmission timer per peer, armed for the earliest deadline
// — not one event per REQUEST, nearly all of which would fire to find
// everything served. Over a TimerEnv whose flat route
// reaches the peer (the simulation engine, the peer being the node's
// registered handler) messages are flat too: PROPOSE, REQUEST and SERVE
// leave through SendIDs and SendServe straight from per-peer scratch and
// arrive through HandleIDs, so in steady state a handler and a round
// allocate nothing at all. Over a plain Env — the real-time driver, any
// wrapper that defines only Env's five methods — a message travels as a
// boxed wire.Message: one exactly sized id list and one box per round's
// PROPOSE and per REQUEST sent, SERVE batches from wire's pool, and the
// closure Env.After takes each time the retransmission timer is armed.
// Both routes run the same handler bodies and the one retransmission state
// machine, draw the same random numbers and send the same datagrams, of
// the same sizes, in the same order. alloc_test.go holds the handlers to
// these budgets.
package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"time"

	"gossipstream/internal/member"
	"gossipstream/internal/stream"
	"gossipstream/internal/wire"
)

// Env is the environment a peer runs in. Implementations must invoke the
// peer's handlers sequentially (never concurrently). These five methods are
// all a peer needs; an Env that can also carry timers as flat records
// offers TimerEnv on top.
type Env interface {
	// ID returns the local node id.
	ID() wire.NodeID
	// Now returns elapsed time since the experiment epoch.
	Now() time.Duration
	// Send transmits a message with UDP semantics (may be lost, no order).
	Send(to wire.NodeID, msg wire.Message)
	// After schedules fn once after d; the returned function cancels it.
	After(d time.Duration, fn func()) (cancel func())
	// Rand returns the node's deterministic random source.
	Rand() *rand.Rand
}

// TimerEnv is an optional extension of Env for environments that can carry
// a peer's timers and messages as flat records instead of closures and
// boxed interfaces. A peer checks for it at Start: when its Env implements
// TimerEnv and FlatTimers reports true, every gossip tick and the
// retransmission timer are armed with AfterTimer and come back through
// (*Peer).OnTimer, and every PROPOSE, REQUEST and SERVE leaves through
// SendIDs or SendServe — the peer expects them back through HandleIDs —
// none of which allocates; otherwise the same OnTimer calls are wrapped in
// closures and armed with After, and messages are boxed and sent with
// Send. Both routes run the one timer state machine and the same handler
// bodies, arm and send in the same order, so which one is taken never
// changes what the peer does. A flat SERVE is the ids of its packets, for
// an environment that moves no payload bytes: the simulation engine's
// *megasim.NodeEnv implements TimerEnv; the real-time driver and any
// wrapper that defines only Env's five methods do not need to.
//
// Ids cross the flat route by copy, in both directions: the environment
// copies what SendIDs and SendServe are given before they return (the
// peer sends from scratch it reuses at once), and the ids it hands
// HandleIDs are its own, valid for the call only — the peer copies the
// ids it keeps, never the slice.
type TimerEnv interface {
	Env
	// FlatTimers reports whether the flat route reaches this peer: the
	// environment's driver must have registered the peer itself as the
	// receiver of OnTimer and HandleIDs calls. Asked once per Start.
	FlatTimers() bool
	// AfterTimer schedules OnTimer(kind, arg) on the peer once after d.
	// There is no cancel: the peer recognizes and ignores timers it no
	// longer wants — a tick by its Start epoch, a retransmission timer by
	// its generation, which a timer armed for an earlier deadline
	// supersedes. An environment may drop the timers of a node it has
	// removed.
	AfterTimer(d time.Duration, kind uint8, arg uint32)
	// SendIDs transmits a PROPOSE or REQUEST (kind) carrying ids, exactly
	// as Send would the boxed message.
	SendIDs(to wire.NodeID, kind wire.Kind, ids []stream.PacketID)
	// SendServe transmits one SERVE of the packets ids names, each
	// carrying payloadBytes, which the peer has cut to the MTU
	// (wire.CutServeIDs): the same datagram, of wire.ServeSize(len(ids),
	// payloadBytes) bytes, Send would carry for the boxed SERVE of those
	// packets.
	SendServe(to wire.NodeID, ids []stream.PacketID, payloadBytes int)
}

// Timer kinds, the first argument of OnTimer.
const (
	// timerTick is a gossip round; arg is the Start epoch that armed the
	// chain, so a chain left over from before a Stop ends when it fires.
	timerTick uint8 = iota
	// timerRetransmit is the peer's retransmission timer; arg is the
	// generation it was armed under, and only the newest is honoured.
	timerRetransmit
)

// RetryPolicy selects the target of retransmitted REQUESTs.
type RetryPolicy int

const (
	// RetrySameProposer replays the original PROPOSE: missing ids are
	// re-requested from the node first requested — the literal reading of
	// Algorithm 1 line 25 and the default.
	RetrySameProposer RetryPolicy = iota + 1
	// RetryRandomProposer re-requests from a uniformly random recorded
	// proposer of the id. This is an extension beyond the paper: it doubles
	// as fail-over (dead or congested servers get routed around), which
	// measurably blunts the penalties of static views and churn — see the
	// ablation benchmarks.
	RetryRandomProposer
)

// Config carries the protocol parameters studied in the paper.
type Config struct {
	// Fanout is f, the number of partners contacted per gossip operation.
	// The paper's optimum for n=230 at 700 kbps is 7 ≈ ln(230)+1.6.
	Fanout int
	// SourceFanout is the fanout of the stream source (7 in all the
	// paper's experiments).
	SourceFanout int
	// GossipPeriod is the time between gossip operations (200 ms).
	GossipPeriod time.Duration
	// RefreshEvery is X: partners change every X selectNodes calls;
	// member.Never keeps them forever.
	RefreshEvery int
	// FeedEvery is Y: every Y rounds the node asks Fanout random nodes to
	// feed it; member.Never disables.
	FeedEvery int
	// RetPeriod is the retransmission timer delay.
	RetPeriod time.Duration
	// MaxRequests is K: the maximum number of REQUESTs (initial plus
	// retransmissions) issued per packet id.
	MaxRequests int
	// MaxProposers bounds the remembered proposers per id.
	MaxProposers int
	// Retry selects the retransmission target policy.
	Retry RetryPolicy
	// Leech, when true, makes the peer a free-rider: it requests and
	// receives the stream like everyone else but never proposes what it
	// holds and never serves requests, consuming partners' uplinks while
	// contributing nothing. An adversarial extreme of the paper's
	// heterogeneous-capacity study, not part of its protocol. A source
	// cannot leech.
	Leech bool
}

// DefaultConfig returns the paper's streaming configuration with its
// optimal fanout.
func DefaultConfig() Config {
	return Config{
		Fanout:       7,
		SourceFanout: 7,
		GossipPeriod: 200 * time.Millisecond,
		RefreshEvery: 1,
		FeedEvery:    member.Never,
		RetPeriod:    3 * time.Second,
		MaxRequests:  4,
		MaxProposers: 4,
		Retry:        RetrySameProposer,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Fanout <= 0:
		return fmt.Errorf("core: Fanout = %d, want > 0", c.Fanout)
	case c.SourceFanout <= 0:
		return fmt.Errorf("core: SourceFanout = %d, want > 0", c.SourceFanout)
	case c.GossipPeriod <= 0:
		return fmt.Errorf("core: GossipPeriod = %v, want > 0", c.GossipPeriod)
	case c.RefreshEvery < 0:
		return fmt.Errorf("core: RefreshEvery = %d, want >= 0", c.RefreshEvery)
	case c.FeedEvery < 0:
		return fmt.Errorf("core: FeedEvery = %d, want >= 0", c.FeedEvery)
	case c.RetPeriod <= 0:
		return fmt.Errorf("core: RetPeriod = %v, want > 0", c.RetPeriod)
	case c.MaxRequests <= 0:
		return fmt.Errorf("core: MaxRequests = %d, want > 0", c.MaxRequests)
	case c.MaxProposers <= 0:
		return fmt.Errorf("core: MaxProposers = %d, want > 0", c.MaxProposers)
	case c.Retry != RetrySameProposer && c.Retry != RetryRandomProposer:
		return fmt.Errorf("core: unknown retry policy %d", c.Retry)
	}
	return nil
}

// requestState tracks the retransmission lifecycle of one packet id: a
// by-value record in the peer's request slab, held from the first REQUEST
// until the packet is delivered or its K-th request is spent, and always in
// an armed batch meanwhile. With MaxRequests = 1 no id gets one. Under
// RetryRandomProposer record i's proposers are stored inline at
// Peer.proposers[i*MaxProposers:], the first nproposers of them valid; the
// default policy never reads them and keeps none.
type requestState struct {
	requests   int32 // REQUESTs issued so far (K cap)
	nproposers int32
	// batch is the slab index plus one of the armed batch that will check
	// on the id.
	batch uint32
	id    stream.PacketID
	// prev and next link the record into its batch's list (request-slab
	// indexes plus one, zero at either end). Before a batch takes them,
	// the records a PROPOSE or a retransmission check made chain through
	// next in request order; a free record chains the free list through
	// next.
	prev, next uint32
}

// reqIndex maps the id of every live request record to the record. It is
// an open-addressing table with linear probing over a power-of-two number
// of slots, each holding (id+1)<<32 | ri (ri the record's slab index plus
// one) or zero when empty, so a probe compares keys without loading a
// record; every id but the largest PacketID has a key, and a peer only
// indexes ids inside its stream. It doubles before it passes half full,
// and a deletion shifts the rest of its probe run back rather than leaving
// a tombstone, so a lookup stops at the first empty slot.
type reqIndex struct {
	slots []uint64
	n     int   // occupied slots
	shift uint8 // 64 - log2(len(slots)): home keeps the hash's top bits
}

// newReqIndex returns an empty index over slots, whose length must be a
// power of two of at least 2; the slots must be zero.
func newReqIndex(slots []uint64) reqIndex {
	return reqIndex{slots: slots, shift: uint8(64 - bits.TrailingZeros(uint(len(slots))))}
}

// home returns id's first probe: Fibonacci hashing, so that the runs of
// consecutive ids a peer requests spread over the table.
func (x *reqIndex) home(id stream.PacketID) int {
	return int((uint64(id) * 0x9E3779B97F4A7C15) >> x.shift)
}

// get returns the record of id, or zero when id has none.
func (x *reqIndex) get(id stream.PacketID) uint32 {
	key, mask := uint64(id)+1, len(x.slots)-1
	for i := x.home(id); ; i = (i + 1) & mask {
		s := x.slots[i]
		if s>>32 == key {
			return uint32(s)
		}
		if s == 0 {
			return 0
		}
	}
}

// put records ri as the record of id, which has none.
func (x *reqIndex) put(id stream.PacketID, ri uint32) {
	if 2*(x.n+1) > len(x.slots) {
		old := x.slots
		//lint:pooled the index doubles to the peak of ids in flight, then keeps its slots
		x.slots = make([]uint64, 2*len(old))
		x.shift--
		for _, s := range old {
			if s != 0 {
				x.insert(s)
			}
		}
	}
	x.insert((uint64(id)+1)<<32 | uint64(ri))
	x.n++
}

// insert stores slot value s at the first empty slot of its probe run.
func (x *reqIndex) insert(s uint64) {
	mask := len(x.slots) - 1
	i := x.home(stream.PacketID(s>>32 - 1))
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = s
}

// del removes id's record, if it has one. Each later slot of the probe
// run whose home does not lie cyclically in (hole, slot] moves back into
// the hole, which then moves to where it was.
func (x *reqIndex) del(id stream.PacketID) {
	key, mask := uint64(id)+1, len(x.slots)-1
	hole := x.home(id)
	for x.slots[hole]>>32 != key {
		if x.slots[hole] == 0 {
			return
		}
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; x.slots[j] != 0; j = (j + 1) & mask {
		if h := x.home(stream.PacketID(x.slots[j]>>32 - 1)); (j-h)&mask >= (j-hole)&mask {
			x.slots[hole] = x.slots[j]
			hole = j
		}
	}
	x.slots[hole] = 0
	x.n--
}

// retBatch is one pending retransmission check in the peer's
// retransmission slab: the ids requested together from proposer, to be
// looked at again at due. Its undelivered ids form a list, in arm order,
// through their request records, head the first; the SERVE that empties
// the list frees the slot, so a batch that reaches its deadline always has
// something to ask about. A free slot chains the free list through head
// (batch-slab indexes plus one). stamp is the arm order, which breaks ties
// between batches due at the same instant.
type retBatch struct {
	head     uint32
	due      time.Duration
	stamp    uint64
	proposer wire.NodeID
	armed    bool
}

// retCancel is one retransmission timer in flight on the After route: the
// generation it was armed under and the cancel function After returned.
type retCancel struct {
	gen    uint32
	cancel func()
}

// Counters exposes protocol-level statistics of a peer.
type Counters struct {
	Rounds          int
	ProposesSent    int
	RequestsSent    int
	ServesSent      int
	PacketsServed   int
	Retransmissions int
	FeedMesSent     int
	DuplicateServes int
	// RetChecks counts the batches that reached their deadline with an id
	// still missing and were examined, RetIdleWakeups the retransmission
	// timers that fired with nothing due (superseded, or every batch they
	// were armed for already served), RetBatchesRetired the batches a
	// SERVE completed and freed before their deadline.
	RetChecks         int
	RetIdleWakeups    int
	RetBatchesRetired int
}

// Peer is one protocol participant. A Peer with a non-nil source publishes
// the stream; all peers propose, request, and serve identically.
//
// Peer methods are not safe for concurrent use; drivers serialize calls.
type Peer struct {
	env     Env
	cfg     Config
	sampler member.Sampler
	view    *member.View
	// recv is held by value: Receiver returns its address, which nothing
	// keeps past the peer's lifetime.
	recv stream.Receiver

	source *stream.Source // nil for ordinary peers

	// table holds, dense over the stream's ids, the packets an ordinary
	// peer on the generic route has been delivered: Start allocates it
	// there, HandleMessage fills it at each first delivery of a boxed
	// SERVE, and a flat peer has none.
	table        []*stream.Packet
	payloadBytes int // the layout's: what each id of a flat SERVE is charged
	// toPropose collects the ids delivered since the last round. It is
	// scratch: a round's PROPOSEs are sent from it and it is truncated.
	toPropose []stream.PacketID
	// known holds one bit per stream id, set once the id is delivered or
	// requested: handlePropose requests exactly the ids whose bit is clear.
	// Stop clears the bits of the ids it gives up on.
	known []uint64
	// index finds an id's request record; only ids being retried have one.
	// Its first slots share known's allocation.
	index reqIndex
	// reqs is the request slab, proposers its inline proposer lists at
	// stride cfg.MaxProposers, reqFree the first record of its free chain
	// (index plus one, zero when empty). Only ids requested, undelivered
	// and with requests left hold a record, so the slab stays a few
	// rounds' worth of ids however long the stream.
	reqs      []requestState
	proposers []wire.NodeID
	reqFree   uint32
	// batches is the retransmission slab (see retBatch), batchFree the
	// first slot of its free chain, retStamp the arm order of the newest
	// batch.
	batches   []retBatch
	batchFree uint32
	retStamp  uint64
	// One retransmission timer serves every batch: retGen is the generation
	// of the newest one armed, retArmed whether it is still in flight and
	// retDue when it fires. A batch due earlier than retDue arms a new
	// timer and so supersedes the one in flight, which fires as a no-op.
	retGen   uint32
	retArmed bool
	retDue   time.Duration
	// retCancels serves the After route only: every retransmission timer
	// in flight, superseded ones included, so that Stop can cancel them all
	// (an environment drops a removed node's flat timers by itself).
	retCancels []retCancel
	// idScratch collects the ids handlePropose and retransmit are about to
	// request, handleRequest to serve on the flat route and a boxed SERVE
	// carries, retTargets where retransmit sends each, and targetScratch
	// the ids retransmit sends to one of several targets.
	idScratch     []stream.PacketID
	retTargets    []wire.NodeID
	targetScratch []stream.PacketID

	round   int
	running bool
	// epoch counts Starts; the tick chain carries it (see timerTick).
	epoch uint32
	// flat is the Env as a TimerEnv while the peer runs on the flat route
	// (timers and messages), nil while it arms timers through After and
	// sends boxed messages through Send; decided at Start.
	flat TimerEnv
	// tickFn and cancelTick serve the After route only: the tick's closure,
	// built once per Start, and the pending tick's cancel.
	tickFn      func()
	cancelTick  func()
	counters    Counters
	layoutTotal int

	// serveScratch and serveBatches are reused across REQUESTs on the
	// generic route so serving does not allocate; they are cleared after
	// use to avoid pinning packets.
	serveScratch []*stream.Packet
	serveBatches []wire.Serve
}

// NewPeer returns an ordinary (non-source) peer over the given sampler.
func NewPeer(env Env, cfg Config, sampler member.Sampler, layout stream.Layout) (*Peer, error) {
	return newPeer(env, cfg, sampler, layout, nil)
}

// NewSourcePeer returns the stream source: it publishes src's ids on the
// stream's schedule and gossips them with SourceFanout.
func NewSourcePeer(env Env, cfg Config, sampler member.Sampler, src *stream.Source) (*Peer, error) {
	if src == nil {
		return nil, fmt.Errorf("core: nil stream source")
	}
	return newPeer(env, cfg, sampler, src.Layout(), src)
}

// initialIndexSlots is the request index's first size, which covers the
// ids a peer has in flight at the paper's rates until it doubles once or
// twice.
const initialIndexSlots = 64

// newPeer builds a peer publishing src (nil for an ordinary peer).
func newPeer(env Env, cfg Config, sampler member.Sampler, layout stream.Layout, src *stream.Source) (*Peer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src != nil && cfg.Leech {
		return nil, fmt.Errorf("core: the stream source cannot leech: nobody else holds the content")
	}
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	fanout := cfg.Fanout
	if src != nil {
		fanout = cfg.SourceFanout
	}
	total := layout.TotalPackets()
	words := (total + 63) / 64
	bitsAndSlots := make([]uint64, words+initialIndexSlots)
	p := &Peer{
		env:          env,
		cfg:          cfg,
		sampler:      sampler,
		view:         member.NewView(sampler, fanout, cfg.RefreshEvery, env.Rand()),
		recv:         stream.MakeReceiver(layout),
		source:       src,
		payloadBytes: layout.PayloadBytes,
		known:        bitsAndSlots[:words:words],
		index:        newReqIndex(bitsAndSlots[words:]),
		layoutTotal:  total,
	}
	return p, nil
}

// Start begins gossiping. The first round fires after a random fraction of
// the gossip period so nodes are not synchronized.
func (p *Peer) Start() {
	if p.running {
		return
	}
	p.running = true
	p.epoch++
	p.flat = nil
	if te, ok := p.env.(TimerEnv); ok && te.FlatTimers() {
		p.flat = te
	} else {
		p.tickFn = p.timerFunc(timerTick, p.epoch)
		if p.source == nil && p.table == nil {
			p.table = make([]*stream.Packet, p.layoutTotal)
		}
	}
	p.armTick(time.Duration(p.env.Rand().Int63n(int64(p.cfg.GossipPeriod))))
}

// Stop halts gossip rounds and drops the pending retransmissions: every
// armed batch is freed together with the request records of its
// undelivered ids, whose known bits it clears, so that a PROPOSE after a
// restart requests them afresh instead of finding them "already requested"
// with no timer left to retry them. Already in-flight messages still
// arrive; handlers on a stopped peer are no-ops.
func (p *Peer) Stop() {
	p.running = false
	if p.cancelTick != nil {
		p.cancelTick()
		p.cancelTick = nil
	}
	// A flat timer cannot be cancelled: it fires to find retArmed false.
	p.retArmed = false
	for _, t := range p.retCancels {
		t.cancel()
	}
	clear(p.retCancels)
	p.retCancels = p.retCancels[:0]
	for i := range p.batches {
		b := &p.batches[i]
		if !b.armed {
			continue
		}
		for ri := b.head; ri != 0; {
			st := &p.reqs[ri-1]
			next := st.next
			p.known[st.id/64] &^= 1 << (st.id % 64)
			p.dropRequest(ri)
			ri = next
		}
		p.freeBatch(uint32(i))
	}
}

// timerFunc wraps OnTimer(kind, arg) for an Env that only takes closures.
func (p *Peer) timerFunc(kind uint8, arg uint32) func() {
	//lint:coldpath only the After route (rt, wrapped Envs) gets here, to build the closure its Env demands; on the simulation engine timers are flat
	return func() { p.OnTimer(kind, arg) }
}

// armTick schedules the next gossip round.
func (p *Peer) armTick(d time.Duration) {
	if p.flat != nil {
		p.flat.AfterTimer(d, timerTick, p.epoch)
		return
	}
	p.cancelTick = p.env.After(d, p.tickFn)
}

// OnTimer is the peer's one timer entry point: the environment calls it
// when a timer armed through TimerEnv.AfterTimer (or its closure over
// After) fires.
func (p *Peer) OnTimer(kind uint8, arg uint32) {
	switch kind {
	case timerTick:
		if arg == p.epoch {
			p.tick()
		}
	case timerRetransmit:
		p.retTimerFired(arg)
	}
}

// Receiver exposes per-window delivery state for metrics.
func (p *Peer) Receiver() *stream.Receiver { return &p.recv }

// Counters returns a snapshot of protocol statistics.
func (p *Peer) Counters() Counters { return p.counters }

// IsSource reports whether this peer publishes the stream.
func (p *Peer) IsSource() bool { return p.source != nil }

// tick runs one gossip round (Algorithm 1, "upon GossipTimer").
func (p *Peer) tick() {
	if !p.running {
		return
	}
	p.round++
	p.counters.Rounds++

	if p.source != nil {
		p.publishNew()
	}
	if p.cfg.FeedEvery != member.Never && p.round%p.cfg.FeedEvery == 0 {
		p.sendFeedMe()
	}

	if len(p.toPropose) > 0 {
		if !p.cfg.Leech {
			p.sendProposes(p.view.Partners(), p.toPropose)
		}
		p.toPropose = p.toPropose[:0] // infect and die (a leech just forgets the ids)
	}

	p.armTick(p.cfg.GossipPeriod)
}

// publishNew delivers freshly published stream ids locally (publish(e) in
// Algorithm 1) and queues them for this round's gossip.
func (p *Peer) publishNew() {
	first, end := p.source.PublishUntil(p.env.Now())
	for id := first; id < end; id++ {
		p.recv.Deliver(id, p.env.Now())
		p.known[id/64] |= 1 << (id % 64)
		//lint:pooled toPropose is per-peer scratch, truncated every round; growth amortizes to a round's worth of ids
		p.toPropose = append(p.toPropose, id)
	}
}

// sendFeedMe implements knob Y: ask Fanout fresh random nodes (independent
// of the current partner set, paper §3) to insert us into their views.
func (p *Peer) sendFeedMe() {
	for _, target := range p.sampler.Sample(p.cfg.Fanout) {
		//lint:boxed FeedMe is zero-size: boxing it allocates nothing
		p.env.Send(target, wire.FeedMe{})
		p.counters.FeedMesSent++
	}
}

// HandleMessage dispatches a delivered message to the protocol handlers.
func (p *Peer) HandleMessage(from wire.NodeID, msg wire.Message) {
	if !p.running {
		return
	}
	switch m := msg.(type) {
	case wire.Propose:
		p.handlePropose(from, m.IDs)
	case wire.Request:
		p.handleRequest(from, m.IDs)
	case wire.Serve:
		// The packets' ids are what the protocol runs on; a peer on the
		// generic route keeps the packets to serve them on.
		ids := p.idScratch[:0]
		for _, pkt := range m.Packets {
			if p.table != nil && int(pkt.ID) < p.layoutTotal && !p.recv.Has(pkt.ID) {
				p.table[pkt.ID] = pkt
			}
			//lint:pooled idScratch is per-peer scratch, reused by every SERVE
			ids = append(ids, pkt.ID)
		}
		p.handleServe(ids)
		p.idScratch = ids[:0]
	case wire.FeedMe:
		p.view.Insert(from)
	default:
		// Unknown kinds are dropped silently, like unparseable datagrams.
	}
}

// HandleIDs is HandleMessage for a PROPOSE, REQUEST or SERVE (kind)
// delivered unboxed, the flat route's counterpart of TimerEnv.SendIDs and
// SendServe. ids is the environment's and valid for the call only.
func (p *Peer) HandleIDs(from wire.NodeID, kind wire.Kind, ids []stream.PacketID) {
	if !p.running {
		return
	}
	switch kind {
	case wire.KindPropose:
		p.handlePropose(from, ids)
	case wire.KindRequest:
		p.handleRequest(from, ids)
	case wire.KindServe:
		p.handleServe(ids)
	}
}

// sendProposes advertises ids to every partner, one PROPOSE per MTU-sized
// chunk. ids is read during the call only.
func (p *Peer) sendProposes(partners []wire.NodeID, ids []stream.PacketID) {
	if p.flat == nil {
		ids = slices.Clone(ids) // the messages in flight own one exact copy of the round's ids
	}
	for len(ids) > 0 {
		var chunk []stream.PacketID
		chunk, ids = wire.CutIDs(ids)
		if p.flat != nil {
			for _, partner := range partners {
				p.flat.SendIDs(partner, wire.KindPropose, chunk)
			}
		} else {
			// Box the message once: Send takes an interface, and converting
			// per partner would allocate fanout times per round.
			var msg wire.Message = wire.Propose{IDs: chunk}
			for _, partner := range partners {
				p.env.Send(partner, msg)
			}
		}
		p.counters.ProposesSent += len(partners)
	}
}

// sendRequests sends ids to target as REQUESTs, one per MTU-sized chunk,
// and returns how many it sent. ids is read during the call only.
func (p *Peer) sendRequests(target wire.NodeID, ids []stream.PacketID) (sent int) {
	if p.flat == nil {
		ids = slices.Clone(ids) // the messages in flight own one exact copy
	}
	for len(ids) > 0 {
		var chunk []stream.PacketID
		chunk, ids = wire.CutIDs(ids)
		if p.flat != nil {
			p.flat.SendIDs(target, wire.KindRequest, chunk)
		} else {
			//lint:boxed over a plain Env the boxed REQUEST is the in-flight message record
			p.env.Send(target, wire.Request{IDs: chunk})
		}
		sent++
	}
	p.counters.RequestsSent += sent
	return sent
}

// sendServeIDs sends the packets ids names to target as flat SERVEs, one
// per MTU-sized batch. ids is read during the call only.
func (p *Peer) sendServeIDs(target wire.NodeID, ids []stream.PacketID) {
	p.counters.PacketsServed += len(ids)
	for len(ids) > 0 {
		var chunk []stream.PacketID
		chunk, ids = wire.CutServeIDs(ids, p.payloadBytes)
		p.flat.SendServe(target, chunk, p.payloadBytes)
		p.counters.ServesSent++
	}
}

// sendServes sends pkts to target as boxed SERVEs, one per MTU-sized
// batch. pkts is read during the call only.
func (p *Peer) sendServes(target wire.NodeID, pkts []*stream.Packet) {
	p.counters.PacketsServed += len(pkts)
	// The batch backings are pooled; ownership passes to the Env, which
	// recycles them when it can tell the message is consumed or leaves them
	// to the collector.
	batches := wire.SplitServeInto(p.serveBatches[:0], pkts)
	p.counters.ServesSent += len(batches)
	for _, serve := range batches {
		//lint:boxed over a plain Env the boxed SERVE is the in-flight message record
		p.env.Send(target, serve)
	}
	clear(batches)
	p.serveBatches = batches[:0]
}

// handlePropose implements phase 2: request ids not yet requested, then set
// a retransmission deadline for them (lines 14–15). One chain of checks
// runs per requested batch — a new deadline on every later PROPOSE for the
// same pending ids would multiply retries K-fold and melt congested uplinks
// further.
func (p *Peer) handlePropose(from wire.NodeID, ids []stream.PacketID) {
	if p.source != nil {
		return // the source already has everything
	}
	// The ids to request collect in scratch, and their records — when a
	// retransmission will need them — in a chain, which armBatch takes.
	fresh := p.idScratch[:0]
	var head, tail uint32
	for _, id := range ids {
		if int(id) >= p.layoutTotal {
			continue
		}
		ri := uint32(0)
		if word, bit := &p.known[id/64], uint64(1)<<(id%64); *word&bit == 0 {
			*word |= bit
			//lint:pooled idScratch is per-peer scratch, reused by every PROPOSE
			fresh = append(fresh, id)
			if p.cfg.MaxRequests == 1 {
				continue // never retried: nothing to record
			}
			ri = p.newRequest(id)
			if tail == 0 {
				head = ri
			} else {
				p.reqs[tail-1].next = ri
			}
			tail = ri
		}
		if p.cfg.Retry != RetryRandomProposer {
			continue // only the random policy ever reads the proposer lists
		}
		if ri == 0 {
			// Delivered, or requested with no retry left, when it has no
			// record.
			if ri = p.index.get(id); ri == 0 {
				continue
			}
		}
		if st := &p.reqs[ri-1]; int(st.nproposers) < p.cfg.MaxProposers {
			p.proposers[int(ri-1)*p.cfg.MaxProposers+int(st.nproposers)] = from
			st.nproposers++
		}
	}
	p.idScratch = fresh[:0]
	if len(fresh) == 0 {
		return
	}
	p.sendRequests(from, fresh)
	if head != 0 {
		p.wakeBy(p.armBatch(from, head))
	}
}

// newRequest takes a record from the request slab for id, requested for
// the first time, enters it in the index, and returns its index plus one.
func (p *Peer) newRequest(id stream.PacketID) uint32 {
	ri := p.reqFree
	if ri != 0 {
		p.reqFree = p.reqs[ri-1].next
	} else {
		//lint:pooled the slab and its proposer lists grow to the peak of concurrently pending ids, then recycle through reqFree
		p.reqs = append(p.reqs, requestState{})
		if p.cfg.Retry == RetryRandomProposer {
			//lint:pooled see above
			p.proposers = append(p.proposers, make([]wire.NodeID, p.cfg.MaxProposers)...)
		}
		ri = uint32(len(p.reqs))
	}
	p.reqs[ri-1] = requestState{requests: 1, id: id}
	p.index.put(id, ri)
	return ri
}

// dropRequest takes request record ri (slab index plus one) out of the
// index and returns it to the free chain: the packet was delivered, its
// K-th request is spent, or a Stop gave up on it.
func (p *Peer) dropRequest(ri uint32) {
	p.index.del(p.reqs[ri-1].id)
	p.reqs[ri-1] = requestState{next: p.reqFree}
	p.reqFree = ri
}

// armBatch records a retransmission check for the ids just requested from
// proposer (lines 14–15), whose records chain through next from head in
// request order, and returns when it is due; the chain becomes the batch's
// list. The delay is jittered over [1.0,
// 1.5]×RetPeriod: a burst of requesters dropped together at one congested
// uplink must not retry in lock-step or they re-create the very burst that
// dropped them. Jitter only extends the delay — RetPeriod is chosen to exceed the worst-case
// honest delivery time, and firing earlier than that turns
// queued-but-coming serves into duplicates. The deadline stays in the
// batch; the caller sees to it that the peer's timer fires by then
// (wakeBy).
func (p *Peer) armBatch(proposer wire.NodeID, head uint32) (due time.Duration) {
	delay := time.Duration(float64(p.cfg.RetPeriod) * (1.0 + 0.5*p.env.Rand().Float64()))
	bi := p.batchFree // index plus one
	if bi != 0 {
		p.batchFree = p.batches[bi-1].head
	} else {
		//lint:pooled the slab grows to the peak of concurrently armed batches, then recycles through batchFree
		p.batches = append(p.batches, retBatch{})
		bi = uint32(len(p.batches))
	}
	p.retStamp++
	b := &p.batches[bi-1]
	*b = retBatch{head: head, due: p.env.Now() + delay, stamp: p.retStamp, proposer: proposer, armed: true}
	for prev, ri := uint32(0), head; ri != 0; prev, ri = ri, p.reqs[ri-1].next {
		st := &p.reqs[ri-1]
		st.batch, st.prev = bi, prev
	}
	return b.due
}

// freeBatch returns retransmission slot bi to the free chain.
func (p *Peer) freeBatch(bi uint32) {
	b := &p.batches[bi]
	b.head, b.armed = p.batchFree, false
	p.batchFree = bi + 1
}

// wakeBy makes sure the peer's retransmission timer fires no later than
// due. A timer in flight that does is left alone; one that fires later
// cannot be cancelled on the flat route, so on either route it is left to
// fire as a no-op and a new generation is armed beside it.
func (p *Peer) wakeBy(due time.Duration) {
	if p.retArmed && p.retDue <= due {
		return
	}
	p.retGen++
	p.retArmed, p.retDue = true, due
	d := due - p.env.Now()
	if p.flat != nil {
		p.flat.AfterTimer(d, timerRetransmit, p.retGen)
		return
	}
	cancel := p.env.After(d, p.timerFunc(timerRetransmit, p.retGen))
	//lint:pooled After route only; the list holds the timers in flight, one plus the superseded ones still to fire
	p.retCancels = append(p.retCancels, retCancel{p.retGen, cancel})
}

// earliestBatch returns the armed batch due first, ties in arm order. A
// peer holds a handful of armed batches at a time, so it scans the slab.
func (p *Peer) earliestBatch() (bi uint32, ok bool) {
	for i := range p.batches {
		b := &p.batches[i]
		if !b.armed {
			continue
		}
		if first := &p.batches[bi]; !ok || b.due < first.due || b.due == first.due && b.stamp < first.stamp {
			bi, ok = uint32(i), true
		}
	}
	return bi, ok
}

// retTimerFired runs when a retransmission timer of generation gen fires:
// unless it was superseded or a Stop intervened, it checks every batch
// that is due, in (deadline, arm order) order — the order a timer per
// batch would have fired them in — and arms the timer once for the
// earliest batch left. Arming waits for the end because each check that
// re-requests arms a batch of its own.
func (p *Peer) retTimerFired(gen uint32) {
	if p.flat == nil {
		for i, t := range p.retCancels {
			if t.gen == gen {
				p.retCancels = slices.Delete(p.retCancels, i, i+1)
				break
			}
		}
	}
	if gen != p.retGen || !p.retArmed {
		p.counters.RetIdleWakeups++
		return
	}
	p.retArmed = false
	now, checked := p.env.Now(), false
	for bi, ok := p.earliestBatch(); ok; bi, ok = p.earliestBatch() {
		if due := p.batches[bi].due; due > now {
			p.wakeBy(due)
			break
		}
		checked = true
		p.retransmit(bi)
	}
	if !checked {
		p.counters.RetIdleWakeups++
	}
}

// retransmit runs the retransmission check of batch bi, which is due: it
// returns the slot and re-requests the batch's still-missing ids,
// respecting the K = MaxRequests cap (line 25) — an id that has used its K
// requests gives its record up here, and its known bit keeps it from being
// requested again. The target is the original proposer
// (RetrySameProposer, replaying the PROPOSE as the pseudocode does) or a
// random recorded one. The ids re-requested form a new batch; seeing that
// the timer fires for it is the caller's.
func (p *Peer) retransmit(bi uint32) {
	p.counters.RetChecks++
	b := &p.batches[bi]
	proposer := b.proposer
	// retry collects the ids to request again, targets[i] where retry[i]
	// goes; their records stay chained, head to tail, for the next batch.
	retry, targets := p.idScratch[:0], p.retTargets[:0]
	var head, tail uint32
	for ri, next := b.head, uint32(0); ri != 0; ri = next {
		st := &p.reqs[ri-1]
		next = st.next
		if int(st.requests) >= p.cfg.MaxRequests {
			p.dropRequest(ri)
			continue
		}
		if tail == 0 {
			head = ri
		} else {
			p.reqs[tail-1].next = ri
		}
		st.next, tail = 0, ri
		st.requests++
		target := proposer
		if p.cfg.Retry == RetryRandomProposer && st.nproposers > 0 {
			target = p.proposers[int(ri-1)*p.cfg.MaxProposers+p.env.Rand().Intn(int(st.nproposers))]
		}
		//lint:pooled idScratch is per-peer scratch, reused by every retransmission
		retry = append(retry, st.id)
		//lint:pooled retTargets is per-peer scratch, reused by every retransmission
		targets = append(targets, target)
	}
	p.idScratch, p.retTargets = retry[:0], targets[:0]
	p.freeBatch(bi) // the ids still wanted are in retry; the next batch may take the slot
	if len(retry) == 0 {
		return
	}
	// Targets are served in first-use order, each with its ids in batch
	// order: send order feeds uplink queues and event sequence numbers, so
	// it must be a pure function of the batch.
	for i, target := range targets {
		if slices.Contains(targets[:i], target) {
			continue // sent together with the target's first id
		}
		toTarget := retry // the one-target case (always, under RetrySameProposer)
		if count(targets[i:], target) < len(retry) {
			if cap(p.targetScratch) < len(retry) {
				//lint:pooled the per-peer scratch grows to the longest retry list, then is reused
				p.targetScratch = make([]stream.PacketID, 0, cap(retry))
			}
			toTarget = p.targetScratch[:0]
			for j := i; j < len(targets); j++ {
				if targets[j] == target {
					//lint:pooled targetScratch is per-peer scratch with room for the whole retry list
					toTarget = append(toTarget, retry[j])
				}
			}
		}
		p.counters.Retransmissions += p.sendRequests(target, toTarget)
	}
	p.armBatch(proposer, head)
}

// count returns how many elements of s equal v.
func count(s []wire.NodeID, v wire.NodeID) int {
	n := 0
	for _, x := range s {
		if x == v {
			n++
		}
	}
	return n
}

// handleRequest implements phase 3: serve the payloads we hold — on the
// flat route the ids we have been delivered (getEvent in Algorithm 1). A
// leech drops the request instead — receivers retransmit toward other
// proposers, paying for the free-rider with their own uplinks.
func (p *Peer) handleRequest(from wire.NodeID, ids []stream.PacketID) {
	if p.cfg.Leech {
		return
	}
	if p.flat != nil {
		held := p.idScratch[:0]
		for _, id := range ids {
			if p.recv.Has(id) {
				//lint:pooled idScratch is per-peer scratch, reused by every REQUEST
				held = append(held, id)
			}
		}
		if len(held) > 0 {
			p.sendServeIDs(from, held)
		}
		p.idScratch = held[:0]
		return
	}
	pkts := p.serveScratch[:0]
	for _, id := range ids {
		if pkt := p.lookup(id); pkt != nil {
			//lint:pooled serveScratch is per-peer scratch, reused by every REQUEST
			pkts = append(pkts, pkt)
		}
	}
	if len(pkts) > 0 {
		p.sendServes(from, pkts)
	}
	clear(pkts)
	p.serveScratch = pkts[:0]
}

// lookup fetches a packet on the generic route (getEvent in Algorithm 1):
// one the peer has been delivered, and so holds, or nil.
func (p *Peer) lookup(id stream.PacketID) *stream.Packet {
	switch {
	case !p.recv.Has(id):
		return nil
	case p.source != nil:
		return p.source.Packet(id)
	default:
		return p.table[id]
	}
}

// handleServe delivers the packets ids names (deliverEvent) and queues
// fresh ids for the next round's propose. An id outside the stream is
// dropped uncounted: it is neither new nor a duplicate.
func (p *Peer) handleServe(ids []stream.PacketID) {
	for _, id := range ids {
		if int(id) >= p.layoutTotal {
			continue
		}
		if !p.recv.Deliver(id, p.env.Now()) {
			p.counters.DuplicateServes++
			continue
		}
		p.known[id/64] |= 1 << (id % 64)
		//lint:pooled toPropose is per-peer scratch, truncated every round; growth amortizes to a round's worth of ids
		p.toPropose = append(p.toPropose, id)
		if ri := p.index.get(id); ri != 0 { // retransmission state no longer needed
			// The batch is one id closer to done; the last one retires it,
			// and no timer will ever look at it.
			st := &p.reqs[ri-1]
			b := &p.batches[st.batch-1]
			if st.prev != 0 {
				p.reqs[st.prev-1].next = st.next
			} else {
				b.head = st.next
			}
			if st.next != 0 {
				p.reqs[st.next-1].prev = st.prev
			}
			if b.head == 0 {
				p.freeBatch(st.batch - 1)
				p.counters.RetBatchesRetired++
			}
			p.dropRequest(ri)
		}
	}
}
