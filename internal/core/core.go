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
// per-window count. The peer runs on ids alone — a SERVE is the ids of its
// packets, and a peer serves an id exactly when it has been delivered it —
// so it holds no packet; only the adapter that carries it over a plain Env
// keeps the packets of the boxed SERVEs an ordinary peer is delivered, a
// pointer per stream id. Pull state exists only while an id is being
// retried: a by-value record in a request slab, found by id through a
// small open-addressing index whose population is the ids in flight, not
// the stream. Retransmission batches live in a second slab — a batch's
// ids are a list linked through their request records, a peer's armed
// batches a list of their own, and free records and batches chain through
// the same links — and the gossip tick and the retransmission timer are
// (kind, arg) timer records rather than closures. Retransmission deadlines
// never leave the peer: a batch records when it is due, a SERVE that
// delivers its last outstanding id frees it on the spot, and the engine
// holds one retransmission timer per peer, armed for the earliest deadline
// — not one event per REQUEST, nearly all of which would fire to find
// everything served. Messages are flat too: PROPOSE, REQUEST and SERVE
// leave through TimerEnv's SendIDs and SendServe from scratch and arrive
// through HandleIDs, so on the simulation engine a handler and a round
// allocate nothing at all in steady state.
//
// The slabs, the scratch and the blocks behind every variable-size part
// of a peer — known bits, request index, propose queue, receiver, partner
// list — belong to a Table (table.go), which the simulation shares among
// the peers of an engine shard: a run allocates as the shard's slabs and
// chunks reach their peaks, not per node — each byte once, as the slabs
// grow by chunks of the chunked store (internal/slab) that are never
// copied — and a node admitted into a
// departed node's slot resets that peer in place (Reset) and allocates
// nothing at all. Over a plain Env — the
// real-time driver, any wrapper of Env's five methods — the adapter boxes
// what the same code sends: one exactly sized id list and one box per
// PROPOSE chunk and per REQUEST, SERVE batches from wire's pool, and the
// closure Env.After takes each time the retransmission timer is armed.
// Either way the peer sends the same datagrams in the same order.
// alloc_test.go holds the handlers to these budgets.
package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"time"

	"gossipstream/internal/member"
	"gossipstream/internal/slab"
	"gossipstream/internal/stream"
	"gossipstream/internal/wire"
)

// Env is the environment a peer runs in. Implementations must invoke the
// peer's handlers sequentially (never concurrently). These five methods are
// all a peer needs: over them, its timers are closures armed with After and
// its messages boxed, sent with Send and delivered through HandleMessage.
// An Env that can carry timers and messages as flat records offers
// TimerEnv on top.
type Env interface {
	// ID returns the local node id.
	ID() wire.NodeID
	// Now returns elapsed time since the experiment epoch.
	Now() time.Duration
	// Send transmits a message with UDP semantics (may be lost, no order).
	Send(to wire.NodeID, msg wire.Message)
	// After schedules fn once after d; the returned function cancels it.
	// A peer never cancels: it ignores the timers it no longer wants.
	After(d time.Duration, fn func()) (cancel func())
	// Rand returns the node's deterministic random source.
	Rand() *rand.Rand
}

// TimerEnv is the route every peer runs on: timers and messages as flat
// records instead of closures and boxed interfaces. Gossip ticks and the
// retransmission timer are armed with AfterTimer and come back through
// (*Peer).OnTimer; PROPOSE, REQUEST and SERVE leave through SendIDs and
// SendServe, none of which allocates. When its Env is a TimerEnv whose
// FlatTimers reports true (the simulation engine's *megasim.NodeEnv), a
// peer runs on it directly and gets its messages through HandleIDs. Over
// any other Env (the real-time driver, a wrapper of Env's five methods) it
// runs on an adapter that arms closures with After, sends boxed messages
// with Send and keeps the packets of the boxed SERVEs HandleMessage
// delivers; the peer's code is the same either way. A flat SERVE is the
// ids of its packets, for an environment that moves no payload bytes.
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
// by-value record in the table's request slab, held from the first REQUEST
// until the packet is delivered or its K-th request is spent, and always in
// an armed batch meanwhile. With MaxRequests = 1 no id gets one. Under
// RetryRandomProposer record i's proposers are stored in the table's
// proposer slab (Table.proposer), the first nproposers of them valid; the
// default policy never reads them.
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
	h     uint32 // the slots' block handle in pool
	n     int    // occupied slots
	shift uint8  // 64 - log2(len(slots)): home keeps the hash's top bits
	// pool lends the slots a doubling moves to and takes back the old
	// ones; nil makes and drops them.
	pool *slab.Pool[uint64]
}

// newReqIndex returns an empty index over slots, whose length must be a
// power of two of at least 2; the slots must be zero. Its pool is nil
// until its owner sets the pool and the handle the slots came with.
func newReqIndex(slots []uint64) reqIndex {
	return reqIndex{slots: slots, shift: uint8(64 - bits.TrailingZeros(uint(len(slots))))}
}

// fib is the Fibonacci hashing multiplier, 2^64 / φ.
const fib = 0x9E3779B97F4A7C15

// home returns id's first probe. Ids are hashed eight at a time: id>>3
// picks a group of eight slots by Fibonacci hashing, so the runs of
// consecutive ids a peer requests spread over the table, and id&7 the
// slot within it, so the eight ids that share a group share a 64-byte
// line and a PROPOSE's consecutive ids touch a line per eight. A table of
// fewer than eight slots hashes each id on its own.
func (x *reqIndex) home(id stream.PacketID) int {
	if x.shift > 61 {
		return int((uint64(id) * fib) >> x.shift)
	}
	return int((uint64(id>>3)*fib)>>(x.shift+3))<<3 | int(id&7)
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
		old, oldH := x.slots, x.h
		x.h, x.slots = x.pool.Get(2 * len(old))
		x.shift--
		for _, s := range old {
			if s != 0 {
				x.insert(s)
			}
		}
		x.pool.Put(oldH, cap(old))
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

// retBatch is one pending retransmission check in the table's
// retransmission slab: the ids a peer requested together from proposer, to
// be looked at again at due. Its undelivered ids form a list, in arm
// order, through their request records, head the first; the SERVE that
// empties the list frees the slot, so a batch that reaches its deadline
// always has something to ask about. The peer's armed batches form a list
// of their own through prev and next (batch-slab indexes plus one, zero at
// either end), which its earliest-deadline scan and Stop walk. A free slot
// chains the free list through head. stamp is the peer's arm order, which
// breaks ties between its batches due at the same instant.
type retBatch struct {
	head       uint32
	prev, next uint32
	due        time.Duration
	stamp      uint64
	proposer   wire.NodeID
	armed      bool
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
	// tab holds the peer's request records, batches and scratch, and lends
	// it the blocks behind known, index, toPropose, recv and view.
	tab     *Table
	env     Env
	cfg     Config
	sampler member.Sampler
	view    member.View
	// recv is held by value: Receiver returns its address, which nothing
	// keeps past the peer's lifetime.
	recv stream.Receiver

	source *stream.Source // nil for ordinary peers

	payloadBytes int // the layout's: what each id of a SERVE is charged
	// toPropose collects the ids delivered since the last round. It is
	// scratch: a round's PROPOSEs are sent from it and it is truncated.
	toPropose []stream.PacketID
	// known holds one bit per stream id, set once the id is delivered or
	// requested: handlePropose requests exactly the ids whose bit is clear.
	// Stop clears the bits of the ids it gives up on.
	known []uint64
	// index finds an id's request record; only ids being retried have one.
	// Only ids requested, undelivered and with requests left hold a
	// record, so a peer holds a few rounds' worth of them however long the
	// stream.
	index reqIndex
	// blocks holds the handles of the peer's blocks in its table's pools
	// (the index keeps its own).
	blocks peerBlocks
	// batchHead is the first of the peer's armed batches (slab index plus
	// one, zero when none), retStamp the arm order of its newest batch.
	batchHead uint32
	retStamp  uint64
	// One retransmission timer serves every batch: retGen is the generation
	// of the newest one armed, retArmed whether it is still in flight and
	// retDue when it fires. A batch due earlier than retDue arms a new
	// timer and so supersedes the one in flight, which fires as a no-op.
	retGen   uint32
	retArmed bool
	retDue   time.Duration

	round   int
	running bool
	// epoch counts Starts; the tick chain carries it (see timerTick).
	epoch uint32
	// flat is where the peer's timers and messages go, decided at each
	// Start: the Env itself when it is a TimerEnv whose flat route reaches
	// the peer, otherwise a *boxedEnv over it, built once and kept.
	flat        TimerEnv
	counters    Counters
	layoutTotal int
}

// peerBlocks are the handles of a peer's blocks: its known bits, its
// propose queue, its receiver's delivery bits and window states, and its
// partner list.
type peerBlocks struct {
	known, propose, seen, windows, partners uint32
}

// privatePeer is a peer together with the table it alone uses.
type privatePeer struct {
	Peer
	tab Table
}

// NewPeer returns an ordinary (non-source) peer over the given sampler, on
// a private table.
func NewPeer(env Env, cfg Config, sampler member.Sampler, layout stream.Layout) (*Peer, error) {
	pp := &privatePeer{tab: makePrivateTable()}
	if err := pp.Reset(&pp.tab, env, cfg, sampler, layout); err != nil {
		return nil, err
	}
	return &pp.Peer, nil
}

// NewSourcePeer returns the stream source, on a private table: it
// publishes src's ids on the stream's schedule and gossips them with
// SourceFanout.
func NewSourcePeer(env Env, cfg Config, sampler member.Sampler, src *stream.Source) (*Peer, error) {
	pp := &privatePeer{tab: makePrivateTable()}
	if err := pp.ResetSource(&pp.tab, env, cfg, sampler, src); err != nil {
		return nil, err
	}
	return &pp.Peer, nil
}

// initialIndexSlots is the request index's first size, which covers the
// ids a peer has in flight at the paper's rates until it doubles once or
// twice.
const initialIndexSlots = 64

// Reset makes p, in place, the ordinary peer NewPeer(env, cfg, sampler,
// layout) would return, on tab. p may be the zero Peer, or a peer that ran
// before — on tab, whose blocks it keeps when their sizes fit the layout,
// so that a peer reset for a node taking over a departed node's slot
// allocates nothing; or on another table, which gets its blocks back. What
// the previous occupant still had pending is dropped as Stop drops it.
// From the Reset on, p sends, draws and counts exactly what a new peer
// would. On an error p must be Reset again before use.
func (p *Peer) Reset(tab *Table, env Env, cfg Config, sampler member.Sampler, layout stream.Layout) error {
	return p.reset(tab, env, cfg, sampler, layout, nil)
}

// ResetSource is Reset for the stream source NewSourcePeer(env, cfg,
// sampler, src) would return.
func (p *Peer) ResetSource(tab *Table, env Env, cfg Config, sampler member.Sampler, src *stream.Source) error {
	if src == nil {
		return fmt.Errorf("core: nil stream source")
	}
	return p.reset(tab, env, cfg, sampler, src.Layout(), src)
}

// reset rebuilds p on tab as a peer publishing src (nil for an ordinary
// peer).
func (p *Peer) reset(tab *Table, env Env, cfg Config, sampler member.Sampler, layout stream.Layout, src *stream.Source) error {
	if p.tab != nil {
		p.Stop()
		if p.tab != tab {
			p.release()
		}
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if src != nil && cfg.Leech {
		return fmt.Errorf("core: the stream source cannot leech: nobody else holds the content")
	}
	if err := layout.Validate(); err != nil {
		return err
	}
	if cfg.Retry == RetryRandomProposer && !tab.setStride(cfg.MaxProposers) {
		return fmt.Errorf("core: MaxProposers = %d on a table whose peers keep %d", cfg.MaxProposers, tab.stride)
	}
	fanout := cfg.Fanout
	if src != nil {
		fanout = cfg.SourceFanout
	}
	total := layout.TotalPackets()
	words := (total + 63) / 64
	b := p.blocks
	known, index, indexH := p.known, p.index.slots, p.index.h
	if len(known) == words {
		clear(known)
	} else {
		tab.words.Put(b.known, cap(known))
		b.known, known = tab.words.Get(words)
	}
	if index == nil { // else Stop has emptied it
		indexH, index = tab.words.Get(initialIndexSlots)
	}
	seen, windows := p.recv.Backings()
	if len(seen) == stream.SeenWords(layout) && len(windows) == layout.Windows {
		clear(seen)
		clear(windows)
	} else {
		tab.words.Put(b.seen, cap(seen))
		tab.windows.Put(b.windows, cap(windows))
		b.seen, seen = tab.words.Get(stream.SeenWords(layout))
		b.windows, windows = tab.windows.Get(layout.Windows)
	}
	partners := p.view.Buffer()
	if cap(partners) < fanout {
		tab.nodes.Put(b.partners, cap(partners))
		b.partners, partners = tab.nodes.Get(fanout)
	}
	*p = Peer{
		tab:          tab,
		env:          env,
		cfg:          cfg,
		sampler:      sampler,
		view:         member.MakeView(sampler, fanout, cfg.RefreshEvery, env.Rand(), partners),
		recv:         stream.MakeReceiverOver(layout, seen, windows),
		source:       src,
		payloadBytes: layout.PayloadBytes,
		toPropose:    p.toPropose[:0],
		known:        known,
		index:        newReqIndex(index),
		blocks:       b,
		layoutTotal:  total,
	}
	p.index.h, p.index.pool = indexH, &tab.words
	return nil
}

// release stops p and gives its blocks back to its table, leaving p the
// zero Peer.
func (p *Peer) release() {
	p.Stop()
	t, b := p.tab, p.blocks
	seen, windows := p.recv.Backings()
	t.words.Put(b.known, cap(p.known))
	t.words.Put(p.index.h, cap(p.index.slots))
	t.words.Put(b.seen, cap(seen))
	t.windows.Put(b.windows, cap(windows))
	t.ids.Put(b.propose, cap(p.toPropose))
	t.nodes.Put(b.partners, cap(p.view.Buffer()))
	*p = Peer{}
}

// Start begins gossiping. The first round fires after a random fraction of
// the gossip period so nodes are not synchronized.
func (p *Peer) Start() {
	if p.running {
		return
	}
	p.running = true
	p.epoch++
	if te, ok := p.env.(TimerEnv); ok && te.FlatTimers() {
		p.flat = te
	} else if _, ok := p.flat.(*boxedEnv); !ok {
		p.flat = newBoxedEnv(p)
	}
	p.armTick(time.Duration(p.env.Rand().Int63n(int64(p.cfg.GossipPeriod))))
}

// Stop halts gossip rounds and drops the pending retransmissions: every
// armed batch is freed together with the request records of its
// undelivered ids, whose known bits it clears, so that a PROPOSE after a
// restart requests them afresh instead of finding them "already requested"
// with no timer left to retry them. Already in-flight messages still
// arrive; handlers on a stopped peer are no-ops. Stop cancels no timer: the
// pending tick fires to find an old epoch, a retransmission timer to find
// retArmed false.
func (p *Peer) Stop() {
	p.running = false
	p.retArmed = false
	t := p.tab
	for p.batchHead != 0 {
		bi := p.batchHead
		for ri := t.batch(bi).head; ri != 0; {
			st := t.req(ri)
			next := st.next
			p.known[st.id/64] &^= 1 << (st.id % 64)
			p.dropRequest(ri)
			ri = next
		}
		p.freeBatch(bi)
	}
}

// armTick schedules the next gossip round.
func (p *Peer) armTick(d time.Duration) {
	p.flat.AfterTimer(d, timerTick, p.epoch)
}

// OnTimer is the peer's one timer entry point: the environment calls it
// when a timer armed through TimerEnv.AfterTimer (or the adapter's closure
// over After) fires.
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

// InFlight reports the peer's share of its table: the ids it awaits with
// a retransmission pending, each holding a request record, and the
// batches armed to check on them.
func (p *Peer) InFlight() (ids, batches int) {
	for bi := p.batchHead; bi != 0; bi = p.tab.batch(bi).next {
		batches++
	}
	return p.index.n, batches
}

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
		p.queuePropose(id)
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
		// The packets' ids are what the protocol runs on; the adapter over
		// a plain Env keeps the packets to serve them on.
		b, _ := p.flat.(*boxedEnv)
		b.keep(m.Packets)
		ids := p.tab.idScratch[:0]
		for _, pkt := range m.Packets {
			//lint:pooled idScratch is the table's scratch, reused by every SERVE
			ids = append(ids, pkt.ID)
		}
		p.handleServe(ids)
		p.tab.idScratch = ids[:0]
	case wire.FeedMe:
		p.view.Insert(from)
	default:
		// Unknown kinds are dropped silently, like unparseable datagrams.
	}
}

// HandleIDs is HandleMessage for a PROPOSE, REQUEST or SERVE (kind)
// delivered unboxed, the counterpart of TimerEnv.SendIDs and SendServe.
// ids is the environment's and valid for the call only.
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
	for len(ids) > 0 {
		var chunk []stream.PacketID
		chunk, ids = wire.CutIDs(ids)
		for _, partner := range partners {
			p.flat.SendIDs(partner, wire.KindPropose, chunk)
		}
		p.counters.ProposesSent += len(partners)
	}
}

// sendRequests sends ids to target as REQUESTs, one per MTU-sized chunk,
// and returns how many it sent. ids is read during the call only.
func (p *Peer) sendRequests(target wire.NodeID, ids []stream.PacketID) (sent int) {
	for len(ids) > 0 {
		var chunk []stream.PacketID
		chunk, ids = wire.CutIDs(ids)
		p.flat.SendIDs(target, wire.KindRequest, chunk)
		sent++
	}
	p.counters.RequestsSent += sent
	return sent
}

// sendServes sends the packets ids names to target as SERVEs, one per
// MTU-sized batch. ids is read during the call only.
func (p *Peer) sendServes(target wire.NodeID, ids []stream.PacketID) {
	p.counters.PacketsServed += len(ids)
	for len(ids) > 0 {
		var chunk []stream.PacketID
		chunk, ids = wire.CutServeIDs(ids, p.payloadBytes)
		p.flat.SendServe(target, chunk, p.payloadBytes)
		p.counters.ServesSent++
	}
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
	t := p.tab
	fresh := t.idScratch[:0]
	var head, tail uint32
	for _, id := range ids {
		if int(id) >= p.layoutTotal {
			continue
		}
		ri := uint32(0)
		if word, bit := &p.known[id/64], uint64(1)<<(id%64); *word&bit == 0 {
			*word |= bit
			//lint:pooled idScratch is the table's scratch, reused by every PROPOSE
			fresh = append(fresh, id)
			if p.cfg.MaxRequests == 1 {
				continue // never retried: nothing to record
			}
			ri = p.newRequest(id)
			if tail == 0 {
				head = ri
			} else {
				t.req(tail).next = ri
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
		if st := t.req(ri); int(st.nproposers) < p.cfg.MaxProposers {
			*t.proposer(ri, int(st.nproposers)) = from
			st.nproposers++
		}
	}
	t.idScratch = fresh[:0]
	if len(fresh) == 0 {
		return
	}
	p.sendRequests(from, fresh)
	if head != 0 {
		p.wakeBy(p.armBatch(from, head))
	}
}

// newRequest takes a record from the table's request slab for id,
// requested for the first time, enters it in the index, and returns its
// index plus one.
func (p *Peer) newRequest(id stream.PacketID) uint32 {
	ri := p.tab.newRequest(id)
	p.index.put(id, ri)
	return ri
}

// dropRequest takes request record ri (slab index plus one) out of the
// index and returns it to the table: the packet was delivered, its K-th
// request is spent, or a Stop gave up on it.
func (p *Peer) dropRequest(ri uint32) {
	p.index.del(p.tab.req(ri).id)
	p.tab.freeRequest(ri)
}

// queuePropose queues id, delivered, for the next round's PROPOSEs. The
// queue's block grows to a round's worth of ids and is kept.
func (p *Peer) queuePropose(id stream.PacketID) {
	p.blocks.propose, p.toPropose = p.tab.ids.Grow(p.blocks.propose, p.toPropose, minProposeBlock)
	//lint:pooled grow gave the block room for id
	p.toPropose = append(p.toPropose, id)
}

// minProposeBlock is the propose queue's first block, a round's worth of
// ids at the paper's rates.
const minProposeBlock = 32

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
	t := p.tab
	bi := t.newBatch() // index plus one
	p.retStamp++
	b := t.batch(bi)
	*b = retBatch{head: head, next: p.batchHead, due: p.env.Now() + delay, stamp: p.retStamp, proposer: proposer, armed: true}
	if p.batchHead != 0 {
		t.batch(p.batchHead).prev = bi
	}
	p.batchHead = bi
	for prev, ri := uint32(0), head; ri != 0; prev, ri = ri, t.req(ri).next {
		st := t.req(ri)
		st.batch, st.prev = bi, prev
	}
	return b.due
}

// freeBatch takes batch bi (slab index plus one) off the peer's list and
// returns it to the table.
func (p *Peer) freeBatch(bi uint32) {
	t := p.tab
	b := t.batch(bi)
	if b.prev != 0 {
		t.batch(b.prev).next = b.next
	} else {
		p.batchHead = b.next
	}
	if b.next != 0 {
		t.batch(b.next).prev = b.prev
	}
	t.freeBatch(bi)
}

// wakeBy makes sure the peer's retransmission timer fires no later than
// due. A timer in flight that does is left alone; one that fires later is
// not cancelled but left to fire as a no-op, and a new generation is armed
// beside it.
func (p *Peer) wakeBy(due time.Duration) {
	if p.retArmed && p.retDue <= due {
		return
	}
	p.retGen++
	p.retArmed, p.retDue = true, due
	p.flat.AfterTimer(due-p.env.Now(), timerRetransmit, p.retGen)
}

// earliestBatch returns the armed batch due first (slab index plus one,
// zero when none), ties in arm order. A peer holds a handful of armed
// batches at a time, so it walks its list.
func (p *Peer) earliestBatch() (first uint32) {
	t := p.tab
	var f *retBatch // batch first; the slab's chunks never move
	for bi := p.batchHead; bi != 0; {
		b := t.batch(bi)
		if f == nil || b.due < f.due || b.due == f.due && b.stamp < f.stamp {
			first, f = bi, b
		}
		bi = b.next
	}
	return first
}

// retTimerFired runs when a retransmission timer of generation gen fires:
// unless it was superseded or a Stop intervened, it checks every batch
// that is due, in (deadline, arm order) order — the order a timer per
// batch would have fired them in — and arms the timer once for the
// earliest batch left. Arming waits for the end because each check that
// re-requests arms a batch of its own.
func (p *Peer) retTimerFired(gen uint32) {
	if gen != p.retGen || !p.retArmed {
		p.counters.RetIdleWakeups++
		return
	}
	p.retArmed = false
	now, checked := p.env.Now(), false
	for bi := p.earliestBatch(); bi != 0; bi = p.earliestBatch() {
		if due := p.tab.batch(bi).due; due > now {
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

// retransmit runs the retransmission check of batch bi (slab index plus
// one), which is due: it
// returns the slot and re-requests the batch's still-missing ids,
// respecting the K = MaxRequests cap (line 25) — an id that has used its K
// requests gives its record up here, and its known bit keeps it from being
// requested again. The target is the original proposer
// (RetrySameProposer, replaying the PROPOSE as the pseudocode does) or a
// random recorded one. The ids re-requested form a new batch; seeing that
// the timer fires for it is the caller's.
func (p *Peer) retransmit(bi uint32) {
	p.counters.RetChecks++
	t := p.tab
	b := t.batch(bi)
	proposer := b.proposer
	// retry collects the ids to request again, targets[i] where retry[i]
	// goes; their records stay chained, head to tail, for the next batch.
	retry, targets := t.idScratch[:0], t.retTargets[:0]
	var head, tail uint32
	for ri, next := b.head, uint32(0); ri != 0; ri = next {
		st := t.req(ri)
		next = st.next
		if int(st.requests) >= p.cfg.MaxRequests {
			p.dropRequest(ri)
			continue
		}
		if tail == 0 {
			head = ri
		} else {
			t.req(tail).next = ri
		}
		st.next, tail = 0, ri
		st.requests++
		target := proposer
		if p.cfg.Retry == RetryRandomProposer && st.nproposers > 0 {
			target = *t.proposer(ri, p.env.Rand().Intn(int(st.nproposers)))
		}
		//lint:pooled idScratch is the table's scratch, reused by every retransmission
		retry = append(retry, st.id)
		//lint:pooled retTargets is the table's scratch, reused by every retransmission
		targets = append(targets, target)
	}
	t.idScratch, t.retTargets = retry[:0], targets[:0]
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
			if cap(t.targetScratch) < len(retry) {
				//lint:pooled the table's scratch grows to the longest retry list, then is reused
				t.targetScratch = make([]stream.PacketID, 0, cap(retry))
			}
			toTarget = t.targetScratch[:0]
			for j := i; j < len(targets); j++ {
				if targets[j] == target {
					//lint:pooled targetScratch is the table's scratch with room for the whole retry list
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

// handleRequest implements phase 3: serve the ids we have been delivered
// (getEvent in Algorithm 1). A leech drops the request instead — receivers
// retransmit toward other proposers, paying for the free-rider with their
// own uplinks.
func (p *Peer) handleRequest(from wire.NodeID, ids []stream.PacketID) {
	if p.cfg.Leech {
		return
	}
	held := p.tab.idScratch[:0]
	for _, id := range ids {
		if p.recv.Has(id) {
			//lint:pooled idScratch is the table's scratch, reused by every REQUEST
			held = append(held, id)
		}
	}
	if len(held) > 0 {
		p.sendServes(from, held)
	}
	p.tab.idScratch = held[:0]
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
		p.queuePropose(id)
		if ri := p.index.get(id); ri != 0 { // retransmission state no longer needed
			// The batch is one id closer to done; the last one retires it,
			// and no timer will ever look at it.
			t := p.tab
			st := t.req(ri)
			b := t.batch(st.batch)
			if st.prev != 0 {
				t.req(st.prev).next = st.next
			} else {
				b.head = st.next
			}
			if st.next != 0 {
				t.req(st.next).prev = st.prev
			}
			if b.head == 0 {
				p.freeBatch(st.batch)
				p.counters.RetBatchesRetired++
			}
			p.dropRequest(ri)
		}
	}
}
