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
// again from a remembered proposer, up to MaxRequests times per id. By
// default (RetrySameProposer) the retry goes to the node first requested,
// the literal reading of the pseudocode's replayed PROPOSE;
// RetryRandomProposer, an extension beyond the paper, re-requests from a
// random recorded proposer of the id instead, routing around congested or
// dead servers.
//
// Proactiveness (paper §3) is delegated to internal/member: the view
// refresh rate X and the feed-me rate Y.
//
// The engine is transport-agnostic: all interaction with time and the
// network goes through Env, implemented by the discrete-event simulator
// (megasim.NodeEnv) and the real-time UDP driver (internal/rt).
//
// # Allocation
//
// What a peer keeps per stream id is about three bits: one "known" bit
// (delivered or requested) and the receiver's delivery bit with its
// per-window count. The peer runs on ids alone — a SERVE is the ids of its
// packets, and a peer serves an id exactly when it has been delivered it —
// so it holds no packet; only the adapter that carries it over a plain Env
// keeps the packets of the boxed SERVEs an ordinary peer is delivered, a
// pointer per stream id. Pull state exists only in the retransmission
// batches: each owns the ids it asks about — under RetryRandomProposer
// with their proposer lists — in buffers of its peer, headers and ids in
// arm order (retBatch), so there is no per-id record and no index, and a
// SERVE touches only the receiver, the known bit and the propose queue; a
// batch served in full is retired lazily, the next time the peer looks
// at it. The gossip tick and the retransmission timer are (kind, arg)
// timer records rather than closures. Retransmission deadlines never
// leave the peer: a batch records when it is due, and the engine holds
// one retransmission timer per peer, armed for the earliest deadline of a
// batch with an id still undelivered — not one event per REQUEST, nearly
// all of which would fire to find everything served. Messages are flat
// too: PROPOSE, REQUEST and SERVE leave through TimerEnv's SendIDs and
// SendServe from scratch and arrive through HandleIDs, so on the
// simulation engine a handler and a round allocate nothing at all in
// steady state.
//
// The scratch and the blocks behind every variable-size part of a peer —
// known bits, batch buffers, propose queue, receiver, partner list —
// belong to a Table (table.go), which the simulation shares among the
// peers of an engine shard: a run allocates as the shard's pools reach
// their peaks, not per node — each byte once, as the pools grow by chunks
// of the chunked store (internal/slab) that are never copied — and a node
// admitted into a departed node's slot resets that peer in place (Reset)
// and allocates nothing at all. A peer built alone (NewPeer,
// NewSourcePeer) gets a private Table of small chunks: it pays for its
// blocks about what it would pay to allocate them, and its table lends and
// counts them (InUse) as a shared one does. Over a plain Env — the
// real-time driver, any wrapper of Env's five methods — the adapter boxes
// what the same code sends: one exactly sized id list and one box per
// PROPOSE chunk and per REQUEST, SERVE batches from wire's pool, and the
// closure Env.After takes each time the retransmission timer is armed.
// Either way the peer sends the same datagrams in the same order.
// alloc_test.go holds the handlers to these budgets.
//
//lint:deterministic Algorithm 1's handlers run inside every simulated replay
package core

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"gossipstream/internal/member"
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

// retBatch is one armed retransmission check, a header in its peer's batch
// buffer (Peer.batches): the ids the peer requested together from
// proposer, to be looked at again at due. The batch owns its ids,
// batchIDs[lo:hi] of its peer, in request order, and under
// RetryRandomProposer their proposer lists. requests is how many REQUESTs
// each of them has had — one count for all, as a batch's ids are requested
// together and re-requested together — and zero once the batch is done
// with. A SERVE does not touch the batch: lo moves past the ids found
// delivered whenever the peer looks at it, and a batch found with none
// left is retired then — by the round tick when it is the oldest, by the
// retransmission timer's earliest-deadline scan, by a compaction or by
// Stop. A check that re-requests keeps the undelivered ids in place and
// re-arms the batch; stamp, the peer's arm order, breaks ties between
// batches due at the same instant.
type retBatch struct {
	due      time.Duration
	stamp    uint64
	proposer wire.NodeID
	requests int32
	lo, hi   uint32
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
	// were armed for already served), RetBatchesRetired the batches whose
	// every id was delivered before their deadline.
	RetChecks         int
	RetIdleWakeups    int
	RetBatchesRetired int
}

// Peer is one protocol participant. A Peer with a non-nil source publishes
// the stream; all peers propose, request, and serve identically.
//
// Peer methods are not safe for concurrent use; drivers serialize calls.
type Peer struct {
	// tab holds the peer's scratch and lends it the blocks behind known,
	// the batch buffers, toPropose, recv and view.
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
	// batches holds the headers of the peer's armed batches in arm order,
	// live from batchHead on (a batch before it is done with), and
	// batchIDs the ids they own, each batch a range of it in the same
	// order. Under RetryRandomProposer proposers holds each id's proposer
	// list, stride MaxProposers+1 per id of batchIDs: the count, then the
	// proposers. An append that finds a buffer full compacts them
	// (makeRoom); Stop empties them. So a peer holds the batches of about
	// one retransmission period however long the stream.
	batches   []retBatch
	batchHead int
	batchIDs  []stream.PacketID
	proposers []wire.NodeID
	// retStamp is the arm order of the newest batch.
	retStamp uint64
	// blocks holds the handles of the peer's blocks in its table's pools.
	blocks peerBlocks
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
// propose queue, its receiver's delivery bits and window states, its
// partner list and its three batch buffers.
type peerBlocks struct {
	known, propose, seen, windows, partners uint32
	batches, batchIDs, proposers            uint32
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
	fanout := cfg.Fanout
	if src != nil {
		fanout = cfg.SourceFanout
	}
	total := layout.TotalPackets()
	words := (total + 63) / 64
	b := p.blocks
	known := p.known
	if len(known) == words {
		clear(known)
	} else {
		tab.words.Put(b.known, cap(known))
		b.known, known = tab.words.Get(words)
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
		batches:      p.batches, // Stop has emptied the batch buffers
		batchIDs:     p.batchIDs,
		proposers:    p.proposers,
		blocks:       b,
		layoutTotal:  total,
	}
	return nil
}

// release stops p and gives its blocks back to its table, leaving p the
// zero Peer.
func (p *Peer) release() {
	p.Stop()
	t, b := p.tab, p.blocks
	seen, windows := p.recv.Backings()
	t.words.Put(b.known, cap(p.known))
	t.words.Put(b.seen, cap(seen))
	t.windows.Put(b.windows, cap(windows))
	t.ids.Put(b.propose, cap(p.toPropose))
	t.nodes.Put(b.partners, cap(p.view.Buffer()))
	t.batches.Put(b.batches, cap(p.batches))
	t.ids.Put(b.batchIDs, cap(p.batchIDs))
	t.nodes.Put(b.proposers, cap(p.proposers))
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
// armed batch is let go — retired if all its ids were delivered, else
// with the known bits of its undelivered ids cleared, so that a PROPOSE
// after a restart requests them afresh instead of finding them "already
// requested" with no timer left to retry them — and the batch buffers are
// emptied. Already in-flight messages still arrive; handlers on a stopped
// peer are no-ops. Stop cancels no timer: the pending tick fires to find
// an old epoch, a retransmission timer to find retArmed false.
func (p *Peer) Stop() {
	p.running = false
	p.retArmed = false
	for i := p.batchHead; i < len(p.batches); i++ {
		b := &p.batches[i]
		if b.requests == 0 {
			continue
		}
		if !p.pending(b) {
			p.retire(b)
			continue
		}
		for _, id := range p.batchIDs[b.lo:b.hi] {
			if !p.recv.Has(id) {
				p.known[id/64] &^= 1 << (id % 64)
			}
		}
		p.drop(b)
	}
	p.emptyBatches()
}

// armTick schedules the next gossip round.
func (p *Peer) armTick(d time.Duration) {
	p.flat.AfterTimer(d, timerTick, p.epoch)
}

// OnTimer is the peer's one timer entry point: the environment calls it
// when a timer armed through TimerEnv.AfterTimer (or the adapter's closure
// over After) fires.
//
//lint:hot runs once per timer; the engines reach it only through an interface
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

// Counters returns a snapshot of protocol statistics. An armed batch
// whose ids have all been delivered counts as retired already, though the
// peer has not yet looked at it.
func (p *Peer) Counters() Counters {
	c := p.counters
	for i := p.batchHead; i < len(p.batches); i++ {
		b := &p.batches[i]
		if b.requests != 0 && p.delivered(b) {
			c.RetBatchesRetired++
		}
	}
	return c
}

// InFlight reports the peer's share of what its table counts (InUse): the
// ids and batches it holds for a retransmission check — the batches armed
// and not yet retired, and the ids they own that the peer has not yet
// found delivered.
func (p *Peer) InFlight() (ids, batches int) {
	for i := p.batchHead; i < len(p.batches); i++ {
		if b := &p.batches[i]; b.requests != 0 {
			ids += int(b.hi - b.lo)
			batches++
		}
	}
	return ids, batches
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
	p.trimBatches()

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
//
//lint:hot runs once per delivered message; the engines reach it only through an interface
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
//
//lint:hot the typed route of every PROPOSE and REQUEST, reached only through an interface
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
	// The ids to request collect in a new batch opened at the end of the
	// batch buffers, which the deadline drawn after the REQUESTs arms — or
	// in scratch when no retransmission will need them (K = 1).
	t := p.tab
	fresh := t.idScratch[:0]
	retry := p.cfg.MaxRequests > 1
	random := retry && p.cfg.Retry == RetryRandomProposer
	stride := p.proposerStride()
	if retry {
		p.makeRoom(len(ids))
	}
	open := len(p.batchIDs)
	for _, id := range ids {
		if int(id) >= p.layoutTotal {
			continue
		}
		if word, bit := &p.known[id/64], uint64(1)<<(id%64); *word&bit == 0 {
			*word |= bit
			if !retry {
				//lint:pooled idScratch is the table's scratch, reused by every PROPOSE
				fresh = append(fresh, id)
				continue
			}
			//lint:pooled makeRoom left the buffer room for every id of the PROPOSE
			p.batchIDs = append(p.batchIDs, id)
			if random {
				n := len(p.proposers)
				p.proposers = p.proposers[:n+stride]
				p.proposers[n], p.proposers[n+1] = 1, from
			}
			continue
		}
		// Only the random policy ever reads the proposer lists, and only an
		// id requested, undelivered and with requests left has one: in the
		// batch this PROPOSE opens or in a live one.
		if !random || p.recv.Has(id) {
			continue
		}
		if list := p.proposerList(id, open); list != nil && int(list[0]) < p.cfg.MaxProposers {
			list[0]++
			list[list[0]] = from
		}
	}
	t.idScratch = fresh[:0]
	if retry {
		fresh = p.batchIDs[open:]
	}
	if len(fresh) == 0 {
		return
	}
	p.sendRequests(from, fresh)
	if retry {
		//lint:pooled makeRoom left the buffer room for one more batch
		p.batches = append(p.batches, retBatch{proposer: from, requests: 1, lo: uint32(open), hi: uint32(len(p.batchIDs))})
		t.liveIDs += len(fresh)
		t.liveBatches++
		p.wakeBy(p.arm(&p.batches[len(p.batches)-1]))
	}
}

// proposerStride is the length of an id's proposer list in the proposers
// buffer: its count and MaxProposers proposers under RetryRandomProposer,
// zero under the default policy, which keeps none.
func (p *Peer) proposerStride() int {
	if p.cfg.Retry != RetryRandomProposer {
		return 0
	}
	return p.cfg.MaxProposers + 1
}

// proposerList returns the proposer list of id, which is known and not
// delivered, from the batch being opened at batchIDs[open:] or else from
// the live batch that owns it, looked for newest first; nil when no batch
// does (its K requests are spent). An id is owned by one batch at most.
func (p *Peer) proposerList(id stream.PacketID, open int) []wire.NodeID {
	at := -1
	if i := slices.Index(p.batchIDs[open:], id); i >= 0 {
		at = open + i
	}
	for i := len(p.batches) - 1; at < 0 && i >= p.batchHead; i-- {
		if b := &p.batches[i]; b.requests != 0 {
			if j := slices.Index(p.batchIDs[b.lo:b.hi], id); j >= 0 {
				at = int(b.lo) + j
			}
		}
	}
	if at < 0 {
		return nil
	}
	stride := p.proposerStride()
	return p.proposers[at*stride : (at+1)*stride]
}

// The first blocks of the batch buffers: a few rounds' worth of batches
// and of their ids at the paper's rates.
const (
	minBatchBlock   = 16
	minBatchIDBlock = 64
)

// makeRoom sees that the batch buffers take one more batch of up to n ids.
// When they would not, it compacts them, and a buffer that still lacks
// the room, or is more than half full, doubles: so a compaction frees at
// least half the buffer for the appends that follow it.
func (p *Peer) makeRoom(n int) {
	stride := p.proposerStride()
	if len(p.batches) < cap(p.batches) && len(p.batchIDs)+n <= cap(p.batchIDs) && len(p.proposers)+n*stride <= cap(p.proposers) {
		return
	}
	p.compactBatches()
	t, b := p.tab, &p.blocks
	b.batches, p.batches = t.batches.Grow(b.batches, p.batches, max(1, len(p.batches)), minBatchBlock)
	b.batchIDs, p.batchIDs = t.ids.Grow(b.batchIDs, p.batchIDs, max(n, len(p.batchIDs)), minBatchIDBlock)
	if stride > 0 {
		b.proposers, p.proposers = t.nodes.Grow(b.proposers, p.proposers, cap(p.batchIDs)*stride-len(p.proposers), minBatchIDBlock*stride)
	}
}

// compactBatches moves the live batches to the front of the batch buffers
// in arm order, their ids and proposer lists with them, dropping the
// batches done with and retiring those whose ids have all been delivered.
func (p *Peer) compactBatches() {
	stride := p.proposerStride()
	kept, at := 0, uint32(0)
	for i := p.batchHead; i < len(p.batches); i++ {
		b := p.batches[i]
		if b.requests == 0 {
			continue
		}
		if !p.pending(&b) {
			p.retire(&b)
			continue
		}
		n := b.hi - b.lo
		copy(p.batchIDs[at:], p.batchIDs[b.lo:b.hi])
		if stride > 0 {
			copy(p.proposers[int(at)*stride:], p.proposers[int(b.lo)*stride:int(b.hi)*stride])
		}
		b.lo, b.hi, at = at, at+n, at+n
		p.batches[kept] = b
		kept++
	}
	p.batches, p.batchIDs, p.proposers = p.batches[:kept], p.batchIDs[:at], p.proposers[:int(at)*stride]
	p.batchHead = 0
}

// emptyBatches empties the batch buffers, whose batches are all done with.
func (p *Peer) emptyBatches() {
	p.batches, p.batchIDs, p.proposers = p.batches[:0], p.batchIDs[:0], p.proposers[:0]
	p.batchHead = 0
}

// trimBatches lets go of the oldest batches while they are done with or
// have had all their ids delivered, and empties the buffers once none is
// left.
func (p *Peer) trimBatches() {
	for ; p.batchHead < len(p.batches); p.batchHead++ {
		b := &p.batches[p.batchHead]
		if b.requests != 0 {
			if p.pending(b) {
				return
			}
			p.retire(b)
		}
	}
	p.emptyBatches()
}

// pending moves b's lo past the ids delivered since the peer last looked
// and reports whether b still has an id to ask about. Delivery is never
// undone, so each id is looked past once.
func (p *Peer) pending(b *retBatch) bool {
	lo := b.lo
	for b.lo < b.hi && p.recv.Has(p.batchIDs[b.lo]) {
		b.lo++
	}
	p.tab.liveIDs -= int(b.lo - lo)
	return b.lo < b.hi
}

// delivered reports whether every id of b has been delivered.
func (p *Peer) delivered(b *retBatch) bool {
	for _, id := range p.batchIDs[b.lo:b.hi] {
		if !p.recv.Has(id) {
			return false
		}
	}
	return true
}

// retire lets go of b, whose ids have all been delivered before its
// deadline.
func (p *Peer) retire(b *retBatch) {
	p.counters.RetBatchesRetired++
	p.drop(b)
}

// drop marks b done with and takes it and the ids it holds out of the
// table's count.
func (p *Peer) drop(b *retBatch) {
	p.tab.liveIDs -= int(b.hi - b.lo)
	p.tab.liveBatches--
	b.requests = 0
}

// queuePropose queues id, delivered, for the next round's PROPOSEs. The
// queue's block grows to a round's worth of ids and is kept.
func (p *Peer) queuePropose(id stream.PacketID) {
	p.blocks.propose, p.toPropose = p.tab.ids.Grow(p.blocks.propose, p.toPropose, 1, minProposeBlock)
	//lint:pooled grow gave the block room for id
	p.toPropose = append(p.toPropose, id)
}

// minProposeBlock is the propose queue's first block, a round's worth of
// ids at the paper's rates.
const minProposeBlock = 32

// arm sets b's deadline for its ids, just requested (lines 14–15), and
// returns it. The delay is jittered over [1.0, 1.5]×RetPeriod: a burst of
// requesters dropped together at one congested uplink must not retry in
// lock-step or they re-create the very burst that dropped them. Jitter
// only extends the delay — RetPeriod is chosen to exceed the worst-case
// honest delivery time, and firing earlier than that turns
// queued-but-coming serves into duplicates. The deadline stays in the
// batch; the caller sees to it that the peer's timer fires by then
// (wakeBy).
func (p *Peer) arm(b *retBatch) (due time.Duration) {
	delay := time.Duration(float64(p.cfg.RetPeriod) * (1.0 + 0.5*p.env.Rand().Float64()))
	p.retStamp++
	b.due, b.stamp = p.env.Now()+delay, p.retStamp
	return b.due
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

// earliestBatch returns the index in batches of the live batch with an id
// still to ask about that is due first, ties in arm order, or -1 when
// there is none; the batches it finds fully delivered on the way it
// retires. A peer holds a few dozen batches at a time, so it walks them.
func (p *Peer) earliestBatch() (first int) {
	p.trimBatches()
	first = -1
	for i := p.batchHead; i < len(p.batches); i++ {
		b := &p.batches[i]
		if b.requests == 0 {
			continue
		}
		if !p.pending(b) {
			p.retire(b)
			continue
		}
		if first >= 0 {
			if f := &p.batches[first]; f.due < b.due || f.due == b.due && f.stamp < b.stamp {
				continue
			}
		}
		first = i
	}
	return first
}

// retTimerFired runs when a retransmission timer of generation gen fires:
// unless it was superseded or a Stop intervened, it checks every batch
// that is due, in (deadline, arm order) order — the order a timer per
// batch would have fired them in — and arms the timer once for the
// earliest batch left. Arming waits for the end because each check that
// re-requests re-arms its batch.
func (p *Peer) retTimerFired(gen uint32) {
	if gen != p.retGen || !p.retArmed {
		p.counters.RetIdleWakeups++
		return
	}
	p.retArmed = false
	now, checked := p.env.Now(), false
	for i := p.earliestBatch(); i >= 0; i = p.earliestBatch() {
		if due := p.batches[i].due; due > now {
			p.wakeBy(due)
			break
		}
		checked = true
		p.retransmit(&p.batches[i])
	}
	if !checked {
		p.counters.RetIdleWakeups++
	}
}

// retransmit runs the retransmission check of batch b, which is due and
// has an id still undelivered: it re-requests the batch's undelivered ids,
// respecting the K = MaxRequests cap (line 25) — a batch whose ids have
// used their K requests is dropped here, and their known bits keep them
// from being requested again. The target is the original proposer
// (RetrySameProposer, replaying the PROPOSE as the pseudocode does) or a
// random recorded one. The batch keeps the ids re-requested, in order, and
// is armed anew; seeing that the timer fires for it is the caller's.
//
//lint:hot stays audited however the timer entry reaches it
func (p *Peer) retransmit(b *retBatch) {
	p.counters.RetChecks++
	if int(b.requests) >= p.cfg.MaxRequests {
		p.drop(b)
		return
	}
	b.requests++
	t := p.tab
	stride := p.proposerStride()
	// The batch keeps the ids to request again, its undelivered ones, at
	// the front of its range; targets[i] is where the i-th of them goes.
	targets := t.retTargets[:0]
	kept := b.lo
	for i := b.lo; i < b.hi; i++ {
		id := p.batchIDs[i]
		if p.recv.Has(id) {
			continue
		}
		p.batchIDs[kept] = id
		target := b.proposer
		if stride > 0 {
			list := p.proposers[int(kept)*stride : int(kept+1)*stride]
			copy(list, p.proposers[int(i)*stride:int(i+1)*stride])
			if list[0] > 0 {
				target = list[1+p.env.Rand().Intn(int(list[0]))]
			}
		}
		kept++
		//lint:pooled retTargets is the table's scratch, reused by every retransmission
		targets = append(targets, target)
	}
	t.liveIDs -= int(b.hi - kept)
	b.hi = kept
	t.retTargets = targets[:0]
	retry := p.batchIDs[b.lo:b.hi]
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
				t.targetScratch = make([]stream.PacketID, 0, len(retry))
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
	p.arm(b)
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
	}
}
