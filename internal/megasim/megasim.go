// Package megasim is the discrete-event simulation engine, from the
// paper's 230-node testbed to internet-scale gossip experiments: it runs
// the network model internal/simnet defines (capped drop-tail uplinks,
// heterogeneous lognormal latencies, ambient UDP loss, crash failures) and
// can partition the nodes across per-core shards so 100k+-node deployments
// complete in minutes instead of hours.
//
// # Architecture
//
// Each shard owns a slice of the nodes and a private event scheduler.
// Shards advance together through conservative time windows: the window
// length is the engine's lookahead — a lower bound on the one-way latency
// of any message, derived from the latency model —
// so an event executing anywhere inside the current window can only
// produce cross-shard work for later windows. Within a window every shard
// runs independently (no locks on the hot path): a message sent to another
// shard waits in a per-(source, destination) outbox, and at the window's end
// the destination folds it into its scheduler. That hand-off is the only
// one. A send made while no window runs, at setup or in a barrier callback,
// goes straight into the destination's scheduler: nothing else runs then.
// The goroutine calling Run executes shard 0 and hands the other shards'
// phases to worker goroutines through an atomic epoch (see waiter). Every
// shard count takes this one path; one shard has no worker to hand a
// phase to, and nothing can cross to another shard, so its window runs to
// the next barrier.
//
// # Determinism
//
// A run is a pure function of the seed and the node/topology setup; the
// shard count changes only how fast it runs:
//
//   - every draw the engine makes belongs to a node: its base latency, and
//     the loss and jitter draws of its sends, come from the node's own
//     stream, seeded from (seed, handle) and drawn in the node's own
//     program order (after Salmon et al.'s counter-based streams, SC 2011);
//     the pair spread's salt is a function of the seed. The engine holds
//     no stream of its own;
//   - every event records its origin — the sender of a delivery, the node
//     itself for a timer or a membership tick — and each shard's scheduler
//     pops same-instant events by origin, then in push order. One origin's
//     events reach a shard in the origin's program order, whether straight
//     from its own shard or through an outbox, so a node sees the same
//     event sequence however the nodes are partitioned, and nothing
//     depends on goroutine interleaving;
//   - global actions — churn, and observers such as progress snapshots —
//     run at barriers via AtBarrier, with every shard quiescent, at their
//     exact instants whatever the shard count. A send a callback makes is
//     in its destination's scheduler when the call returns, on whichever
//     shard the destination runs, so a later callback at the same instant
//     sees it pending at every shard count.
//
// So a run is bit-identical across runs, GOMAXPROCS settings and shard
// counts, and so is what a barrier callback observes; only the load
// tables (ShardLoads) and where windows end differ.
//
// # Event representation
//
// Rather than a closure and a heap node per message, megasim stores
// events by value in the shard's scheduler: one
// 32-byte record per in-flight delivery, timer or tick, holding no pointer,
// so the pending set is memory the collector never scans. What an event
// carries lives in the record itself or in per-shard side tables the
// record names by index:
//
//   - a message of one id — every SERVE of the paper's packets, a one-id
//     REQUEST or PROPOSE: 59% of a 2,000-node steady run's deliveries — of
//     at most 65,535 application bytes rides in its event (evDeliverID):
//     the id, the wire kind and the size take fields the record has
//     anyway, and neither its send nor its delivery touches a slab record;
//   - any other in-flight message is one 64-byte record of the shard's
//     message slab (or, crossing shards, of an outbox until the merge, which
//     copies it into the slab once): kind, size,
//     and a copy of the id list — a SERVE's as the ids of its packets, a
//     SHUFFLE's entries as (id, age) word pairs — inline for up to nine ids
//     (nine in ten REQUESTs of a steady stream) or a SHUFFLE of up to four
//     entries, otherwise in a block of the shard's spill pool (an
//     outbox's bump region on the way across) — or, for a boxed SERVE,
//     LEAVE, FEED-ME (the last two zero-size, so boxing them allocates
//     nothing) and foreign types, the boxed wire.Message as sent. A record
//     is stored once per fan-out per destination shard: a send of the same
//     unboxed message as the last record its shard's slab (or its outbox)
//     filled, while that record is still held, names that record again, so
//     a gossip round's PROPOSE to seven partners takes one record
//     and one spill block per shard its partners run on, not seven; each
//     partner's send still shapes, draws and queues its own event. Every
//     send ends in exactly one delivery or drop; at the last of those of
//     the sends that name a record, the record lets go of its message — a
//     boxed SERVE's pooled backing back to wire's pool — and it and its
//     block return to their free lists;
//   - the closure of a NodeEnv.After timer waits in the After table.
//
// The typed route — NodeEnv.SendIDs/SendServe in, TimerHandler's
// HandleIDs out — never boxes a PROPOSE, REQUEST or SERVE, and a SERVE on
// it is the ids of its packets, charged wire.ServeSize for their payload
// width: no simulated packet has bytes. The generic Send and HandleMessage
// stay for everything else and for node logic behind wrappers, unpacking
// PROPOSE and REQUEST into and boxing them out of the same record, so both
// routes share one send and one deliver and, charging a SERVE the same
// bytes either way, run bit-identically.
//
// The engine itself allocates nothing per event: a delivery of either
// route, a membership tick and a node timer (AfterTimer) each reach the
// scheduler as one by-value record; only NodeEnv.After pays one
// allocation, the cancel function it must return, and a generic handler's
// delivery of a protocol message the box it is handed. TestEngineAllocBudget
// holds the engine to that (0 per event for send→deliver of ids and of
// SERVEs of ids, within and across shards, at most 1 for an After chain),
// TestEventRecordIsPointerFree, TestEventRecordSize and
// TestMessageRecordSize to the records' shapes, and CI fails on any "moved
// to heap" the compiler reports in the package.
//
// What does grow — the message slab and its free stack, the spill pool,
// the node and environment tables — grows by fixed-size chunks of the one
// chunked store (internal/slab) that are never moved or copied, so a run
// allocates each byte of its peak footprint once. The outboxes — 32-byte
// events, the records of the messages that do not ride in them, one per
// fan-out, and a region of spilled ids — are the exception: they grow by
// append, copying, to the most one window sends across, and keep that
// capacity for the rest of the run.
//
// # Membership
//
// The engine can carry a live membership substrate alongside the stream:
// AttachSampler hangs a member.DynamicSampler (e.g. a Cyclon record,
// internal/pss) off a node's slot in the node-state arena. The engine
// owns the substrate's schedule — one compact evMemberTick event per node
// per period, no timer closures — and routes SHUFFLE deliveries to the
// record, rebuilt in a per-shard scratch message, transmitting its
// emissions through the same shaped, lossy send path as protocol traffic;
// a Cyclon round allocates nothing (TestEngineAllocBudget's cyclon-shuffle
// legs). Cross-shard shuffles are handed over at
// window ends exactly like streaming messages, so runs with membership
// enabled keep the same-seed, same-run guarantee.
//
// # Runtime admission and slot recycling
//
// Topology is not fixed at Run: AtBarrier callbacks may admit nodes while
// the simulation is in flight (AddNode, then AttachSampler and Start-ing
// node logic), which is what sustained join/leave churn needs — a joining
// node bootstraps from live descriptors and converges through the same
// shuffle traffic as everyone else. Admission happens with every shard
// quiescent: the new node lands on its slot's round-robin shard, its
// first events are scheduled at the barrier time plus de-phasing offsets,
// and a runtime-drawn base latency is clamped so the lookahead fixed at
// Run stays a valid bound. A departure is one call, Crash: the node stops,
// its tick chain ends, its descriptors elsewhere age out, and its arena
// slot queues for the next admission — at the same barrier, if one
// follows — its traffic counters readable until then.
// Because admissions and crashes all run at barriers in schedule order,
// and an admitted node's draws are keyed by its handle, runs with runtime
// churn keep full replay determinism.
//
// A node's environment (NodeEnv) lives by value in an engine-owned table,
// one per arena slot, in chunks that never move; a recycled slot's next
// incarnation rebuilds it in place. ShardOf names the shard a slot's nodes
// run on and the slot's index there, dense from zero per shard, so that a
// caller can keep its own per-node state per shard the same way.
//
// Engine memory is O(live nodes), not O(nodes ever): a crashed slot
// queues in one FIFO ring, and AddNode takes the oldest queued slot, at
// once, before it grows the arena — even at the barrier that crashed it.
// NodeID is a generation-tagged handle (slot index + per-slot incarnation
// counter), so any reference that survives its node — an in-flight
// delivery, an outbox entry, a timer, a descriptor in a sampler's view,
// an experiment-side index — fails the generation check instead of
// reaching the slot's new occupant: deliveries to stale handles are
// counted (StaleDrops, folded into TotalStats as dead traffic), and a
// stale node's timers and ticks are skipped. Departed incarnations'
// traffic counters fold into a departed accumulator at reuse, so
// TotalStats conserves every counter across any amount of churn; a
// departed incarnation's base latency, which draining traffic addressed
// to it still needs, is a function of its handle and is drawn again.
package megasim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gossipstream/internal/member"
	"gossipstream/internal/shaping"
	"gossipstream/internal/simnet"
	"gossipstream/internal/slab"
	"gossipstream/internal/stream"
	"gossipstream/internal/telemetry"
	"gossipstream/internal/wire"
	"gossipstream/internal/xrand"
)

// NodeID identifies a node incarnation: a generation-tagged handle packing
// an arena slot index (low slotBits bits) and the slot's generation counter
// (the bits above). While no slot has ever been recycled — every run
// without a crash — generations are all zero and ids are dense integers
// starting at 0 in AddNode order. Once Crash queues slots for reuse,
// AddNode may mint a
// handle for a recycled slot at the next generation: the slot bits repeat,
// the generation bits differ, so any reference that outlives its node — an
// in-flight delivery, an outbox entry, a descriptor in a sampler view, an
// experiment-side index — is detectable (Slot matches, Gen does not)
// instead of silently aliasing the slot's new occupant.
type NodeID = wire.NodeID

const (
	// slotBits is the width of the arena-slot field in a NodeID: 2^21 ≈ 2M
	// slots, the live-population ceiling. The 10 bits above it (bit 31
	// stays clear — ids remain non-negative) count the slot's generation.
	slotBits = 21
	slotMask = 1<<slotBits - 1
	// maxGen is the last mintable generation. A slot that reaches it
	// retires permanently instead of being reused: the free ring steps
	// past it, since it could no longer mint a handle distinguishable
	// from a stale one.
	maxGen = 1<<(31-slotBits) - 1
)

// Slot returns the arena slot index encoded in a node handle.
func Slot(id NodeID) int { return int(uint32(id) & slotMask) }

// Gen returns the incarnation counter encoded in a node handle.
func Gen(id NodeID) int { return int(uint32(id) >> slotBits) }

// makeID packs a slot index and generation into a handle.
func makeID(slot int, gen uint16) NodeID {
	return NodeID(uint32(slot) | uint32(gen)<<slotBits)
}

// Handler receives messages delivered to a node. PROPOSE and REQUEST
// arrive boxed at delivery, their lists aliasing the engine's message
// record, which the other deliveries of the same fan-out read too: the
// lists are read-only and valid for the call only. A boxed SERVE arrives as
// it was sent; its Packets backing is the engine's until the call returns
// (the packets it points to are the sender's and may be kept). A SERVE
// sent as ids (NodeEnv.SendServe) has no boxed form: only a TimerHandler
// may be sent one.
type Handler interface {
	HandleMessage(from NodeID, msg wire.Message)
}

// TimerHandler is implemented by handlers that take the engine's flat
// route: their timers come back as (kind, arg) records and the protocol's
// three datagrams arrive unboxed. NodeEnv.AfterTimer schedules
// OnTimer(kind, arg) on the handler the node was added with; kind and arg
// are the handler's own and opaque to the engine. A PROPOSE, REQUEST or
// typed SERVE is delivered through HandleIDs instead of HandleMessage,
// which still receives every other kind, a boxed SERVE included. The ids
// alias the engine's message record, shared with the other deliveries of
// the same fan-out, and are read-only and valid for the call only: a
// handler copies the ids it keeps.
type TimerHandler interface {
	OnTimer(kind uint8, arg uint32)
	HandleIDs(from NodeID, kind wire.Kind, ids []stream.PacketID)
}

// Config controls the engine. The network model is simnet's.
type Config struct {
	// Net carries the latency, jitter, and loss model. The engine requires
	// PairSpread < 1 and JitterFrac < 1 so a positive latency lower bound
	// (the lookahead) exists.
	Net simnet.Config
	// Shards is the number of parallel partitions, normally GOMAXPROCS.
	Shards int
	// Seed keys every draw the engine makes: each node's base latency and
	// the loss and jitter of its sends, from a stream seeded by (Seed,
	// handle), and the pair spread's salt. Node logic carries its own
	// streams.
	Seed int64
}

// infTime is the maximum representable virtual time, used as "no event".
const infTime = time.Duration(1<<63 - 1)

type nodeState struct {
	handler Handler
	// flat is handler when it implements TimerHandler, resolved once at
	// AddNode so a node timer or a typed delivery costs no type assertion.
	flat TimerHandler
	// sampler, when non-nil, is the node's dynamic membership record
	// (AttachSampler): the engine ticks it every tickEvery and routes
	// SHUFFLE deliveries to it instead of the handler. Like stats it is
	// only touched by the node's own shard.
	sampler   member.DynamicSampler
	tickEvery time.Duration
	uplink    shaping.Shaper
	base      time.Duration
	// rng is the node's stream, seeded from (Config.Seed, handle): its
	// base latency is drawn first, then its sends' loss and jitter and its
	// sampler's first-tick offset, in the node's own program order.
	rng xrand.SplitMix64
	// stats is written only by the node's own shard (sends from the node,
	// deliveries to the node), never concurrently.
	stats simnet.Stats
}

// A slot's liveness word, Engine.live[slot], holds its generation above
// one flag: gen<<liveGenShift | alive. A handle resolves to the
// slot's current incarnation only when its Gen matches the word's. The
// generation is incremented when the slot is recycled, so every handle a
// queued slot ever minted stays resolvable (and dead-drops normally)
// until reuse actually happens. The words sit in one dense slice apart from
// the nodes' records, so the checks on the event path — a delivery's
// endpoints, a send's source, a timer's node — read four bytes a slot
// rather than a record of hundreds, and a delivery never touches its
// sender's.
const (
	liveAlive    = 1 << 0 // the incarnation runs: added and not crashed
	liveGenShift = 1
)

// sameGen reports whether a handle names the incarnation whose liveness
// word is w.
func sameGen(w uint32, id NodeID) bool { return w>>liveGenShift == uint32(id)>>slotBits }

// aliveWord is the liveness word of the incarnation id names while it is
// alive, so one comparison checks both generation and liveness.
func aliveWord(id NodeID) uint32 { return uint32(id)>>slotBits<<liveGenShift | liveAlive }

// stage is where an engine is in its life, which decides what may change
// and how a send reaches another shard.
type stage uint8

const (
	stageSetup   stage = iota // before Run: nodes, barriers and first events are set up
	stageWindow               // in Run, outside the barrier callbacks: windows run
	stageBarrier              // in an AtBarrier callback: every shard is quiescent
	stageDone                 // Run has returned
)

type globalEvent struct {
	at time.Duration
	fn func()
}

// Engine is a sharded simulation of a message-passing network. Build it
// single-threaded (New, AddNode, AtBarrier, Start-ing node logic), then
// call Run once. Accessors are safe again after Run returns.
type Engine struct {
	cfg    Config
	shards []*shard
	// nodes holds every arena slot's node state, envs its environment
	// (NodeEnv), by value in chunks that never move.
	nodes slab.Table[nodeState]
	envs  slab.Table[NodeEnv]
	// live[slot] is the slot's liveness word (liveAlive above).
	live []uint32
	// pairSalt salts the pair spread factors; nodeKey keys the nodes'
	// streams. Both are functions of Config.Seed.
	pairSalt  uint64
	nodeKey   uint64
	lookahead time.Duration
	// admitBase is the smallest base latency a node admitted at runtime may
	// carry: the lookahead was derived from the setup population's minimum
	// base, so a later draw below it would break the conservative window
	// bound. Runtime draws clamp to it; before Run it is zero.
	admitBase time.Duration
	globals   []globalEvent
	now       time.Duration
	// stage gates topology changes (checkMutable) and picks a send's way
	// to another shard: an outbox inside a window, straight into the
	// destination's queue otherwise.
	stage stage
	// alive counts alive nodes incrementally (AddNode/Crash), so progress
	// snapshots need no O(n) scan.
	alive int
	// added counts AddNode calls (incarnations ever), recycled the subset
	// that reused a freed slot; N() — the arena size — is added minus
	// recycled.
	added    int
	recycled int

	// Slot recycling state, touched only at quiescent points (setup,
	// barrier callbacks): crashed slots queue in the free ring in Crash
	// order until AddNode takes the oldest — a deterministic recycling
	// order for a deterministic schedule of crashes.
	free     []int32
	freeHead int
	// departed accumulates the traffic counters of retired incarnations,
	// folded out of a slot when it is recycled, so TotalStats stays
	// complete across any amount of churn.
	departed simnet.Stats

	// Telemetry: wallNow is an injected wall-clock sampler (teleclock.Clock)
	// read at phase edges by the supervisor and by each shard — never per
	// event — so enabling it cannot perturb the simulated run.
	wallNow func() int64
	wall    telemetry.WallProfile

	// The phase barrier: op and opT are written before epoch is bumped, and
	// epoch e is done at done = e × (shards − 1), which one shard, with no
	// worker, reaches at once. procs is GOMAXPROCS at Run.
	op       uint8
	opT      time.Duration
	epoch    atomic.Uint64
	done     atomic.Uint64
	sup      waiter
	procs    int64
	workerWg sync.WaitGroup
}

// New returns an empty engine with the given shard count.
func New(cfg Config) (*Engine, error) {
	switch {
	case cfg.Shards < 1:
		return nil, fmt.Errorf("megasim: Shards = %d, want >= 1", cfg.Shards)
	case cfg.Net.LossRate < 0 || cfg.Net.LossRate >= 1:
		return nil, fmt.Errorf("megasim: LossRate = %v, want [0,1)", cfg.Net.LossRate)
	case cfg.Net.PairSpread < 0 || cfg.Net.PairSpread >= 1:
		return nil, fmt.Errorf("megasim: PairSpread = %v, want [0,1)", cfg.Net.PairSpread)
	case cfg.Net.JitterFrac < 0 || cfg.Net.JitterFrac >= 1:
		return nil, fmt.Errorf("megasim: JitterFrac = %v, want [0,1)", cfg.Net.JitterFrac)
	case cfg.Net.BaseLatencySigma < 0:
		return nil, fmt.Errorf("megasim: BaseLatencySigma = %v, want >= 0", cfg.Net.BaseLatencySigma)
	}
	key := xrand.Seeded(cfg.Seed)
	e := &Engine{
		cfg:      cfg,
		nodes:    slab.NewTable[nodeState](nodeShift),
		envs:     slab.NewTable[NodeEnv](envShift),
		pairSalt: key.Uint64(),
		nodeKey:  key.Uint64(),
	}
	e.sup.wake = make(chan struct{}, 1)
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		e.shards[i] = newShard(e, i)
	}
	return e, nil
}

// AddNode registers a node with the given upload cap (bits per second;
// shaping.Unlimited for none) and uplink queue bound in bytes, drawing its
// base latency from the configured distribution off the stream its handle
// keys. Nodes are assigned to
// shards round-robin by arena slot, so a recycled slot's new incarnation
// runs on the same shard as its predecessor.
//
// AddNode is legal during setup and — runtime admission, the substrate of
// sustained-churn experiments — inside an AtBarrier callback, where every
// shard is quiescent: the new node takes the oldest slot in the free
// ring, if there is one (its handle carries the slot's next generation),
// even one crashed at this very barrier, and extends the arena otherwise;
// its first events (Start timers, sampler ticks) are scheduled relative to
// the barrier time. A base latency drawn at runtime is clamped from below
// so the engine's conservative lookahead, fixed at Run from the setup
// population, stays a valid lower bound on every pair latency.
func (e *Engine) AddNode(h Handler, upBps, queueBytes int64) NodeID {
	if h == nil {
		panic("megasim: nil handler")
	}
	e.checkMutable("AddNode")
	var up shaping.Shaper
	if upBps != shaping.Unlimited {
		up = *shaping.NewShaper(upBps, queueBytes)
	}
	flat, _ := h.(TimerHandler)
	e.added++
	e.alive++
	var id NodeID
	if slot, ok := e.takeFree(); ok {
		// The retired incarnation's counters fold into the departed
		// accumulator: TotalStats stays complete, including dead drops that
		// accrued while the slot queued, after any experiment-side fold.
		e.departed.Add(e.nodes.At(slot).stats)
		id = makeID(slot, uint16(e.live[slot]>>liveGenShift+1))
		e.live[slot] = aliveWord(id)
		e.recycled++
	} else {
		if e.nodes.Len() > slotMask {
			panic(fmt.Sprintf("megasim: arena full: %d slots in use (handle space holds %d); release departed nodes or raise slotBits", e.nodes.Len(), slotMask+1))
		}
		id = NodeID(e.nodes.Push(nodeState{}))
		e.live = append(e.live, aliveWord(id))
	}
	rng := e.nodeRand(id)
	*e.nodes.At(Slot(id)) = nodeState{handler: h, flat: flat, uplink: up, base: e.drawBase(&rng), rng: rng}
	return id
}

// nodeRand returns the stream of the incarnation id names: a function of
// Config.Seed and the handle alone.
func (e *Engine) nodeRand(id NodeID) xrand.SplitMix64 {
	return xrand.Seeded(int64(e.nodeKey ^ uint64(uint32(id))))
}

// drawBase draws a base latency from the configured lognormal distribution
// off r — Box–Muller on two uniforms — and clamps it at admitBase, so
// that every pair latency respects the lookahead. Setup nodes draw before
// Run, while admitBase is zero, so the clamp changes none of them.
func (e *Engine) drawBase(r *xrand.SplitMix64) time.Duration {
	base := e.cfg.Net.BaseLatencyMedian
	if base <= 0 {
		base = time.Millisecond
	}
	if sigma := e.cfg.Net.BaseLatencySigma; sigma > 0 {
		u, v := 1-r.Float64(), r.Float64()
		z := math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
		base = time.Duration(float64(base) * math.Exp(z*sigma))
	}
	return max(base, e.admitBase)
}

// PeekNextID returns the handle the next AddNode will assign — the oldest
// queued slot at its next generation, or a fresh arena append — without
// consuming it. Callers that construct a node's environment or protocol
// state (both seeded by id) before registering it use this to know the id
// up front; the next AddNode is guaranteed to return the same handle.
func (e *Engine) PeekNextID() NodeID {
	if slot, ok := e.nextFree(); ok {
		return makeID(slot, uint16(e.live[slot]>>liveGenShift+1))
	}
	return NodeID(e.nodes.Len())
}

// nextFree returns the oldest slot in the free ring, if there is one. A
// slot whose generation space is exhausted retires permanently: the ring
// steps past it for good (it could no longer mint a handle
// distinguishable from a stale one); at 10 generation bits that leaks one
// arena slot per 1023 reuses of the same slot, a bounded cost. Nothing
// else waits: whatever of the old incarnation is still in flight fails
// the generation check. Runs only at quiescent points (AddNode,
// PeekNextID — setup or barrier callbacks).
func (e *Engine) nextFree() (int, bool) {
	for e.freeHead < len(e.free) && e.live[e.free[e.freeHead]]>>liveGenShift >= maxGen {
		e.freeHead++
	}
	if e.freeHead == len(e.free) {
		return 0, false
	}
	return int(e.free[e.freeHead]), true
}

// takeFree pops the oldest recyclable slot, if any. The ring reuses its
// backing: reset when exhausted, the tail compacted to the front once the
// consumed head passes the midpoint (amortized O(1) per Crash). Under
// steady churn there are always fresh crashes in the tail, so without the
// compaction the backing would grow by one entry per departure forever —
// the arena would be O(live nodes) but the ring O(total joins).
func (e *Engine) takeFree() (int, bool) {
	slot, ok := e.nextFree()
	if ok {
		e.freeHead++
	}
	if e.freeHead == len(e.free) {
		e.free, e.freeHead = e.free[:0], 0
	} else if e.freeHead >= (len(e.free)+1)/2 {
		n := copy(e.free, e.free[e.freeHead:])
		e.free, e.freeHead = e.free[:n], 0
	}
	return slot, ok
}

// checkMutable panics unless the engine is in a state where topology may
// change: setup (before Run) or an AtBarrier callback (shards quiescent).
func (e *Engine) checkMutable(op string) {
	switch e.stage {
	case stageWindow:
		panic(fmt.Sprintf("megasim: %s during Run outside a barrier callback", op))
	case stageDone:
		panic(fmt.Sprintf("megasim: %s after Run", op))
	}
}

// AttachSampler registers a dynamic membership record for an added node
// and schedules its protocol: the engine calls d.Tick() every period
// (first tick de-phased by an offset off the node's stream so the
// population does not shuffle in lock-step) and routes SHUFFLE deliveries to d.Handle instead
// of the node's handler. Emissions travel the normal lossy send path, so
// membership traffic shares the node's capped uplink with the stream.
// Cross-shard shuffles ride the same per-(src,dst) outboxes as every
// other message. A crashed node's tick chain ends at its next tick; its
// descriptors elsewhere age out of live views. Legal during setup and,
// like AddNode, inside an AtBarrier callback — a node admitted at runtime
// (bootstrap over partial views) gets its first tick de-phased from the
// barrier time.
func (e *Engine) AttachSampler(id NodeID, d member.DynamicSampler, period time.Duration) {
	if d == nil {
		panic("megasim: nil sampler")
	}
	if period <= 0 {
		panic(fmt.Sprintf("megasim: sampler period %v", period))
	}
	e.checkMutable("AttachSampler")
	nd := e.lookup("AttachSampler", id)
	if nd.sampler != nil {
		panic(fmt.Sprintf("megasim: node %d already has a sampler", id))
	}
	nd.sampler = d
	nd.tickEvery = period
	sh := e.shards[e.shardOf(Slot(id))]
	sh.pushMemberTick(e.now+time.Duration(nd.rng.Intn(int(period))), id)
}

// memberTick runs one membership round for the node: dead nodes end their
// tick chain (no cancellation handshake needed — exactly what makes
// barrier-time churn safe), live ones may emit one shuffle and are
// rescheduled one period out. A generation mismatch also ends the chain
// silently: the tick belongs to a departed incarnation whose slot was
// recycled, and letting it through would tick the new occupant's sampler
// twice per period. This is the designed end of the chain, not a stale
// event worth counting.
func (e *Engine) memberTick(sh *shard, id NodeID) {
	nd := e.liveNode(id)
	if nd == nil || nd.sampler == nil {
		return
	}
	if em, ok := nd.sampler.Tick(); ok {
		e.sendMsg(sh, id, em.To, em.Msg)
	}
	sh.pushMemberTick(sh.now+nd.tickEvery, id)
}

// N returns the arena size: the high-water population of concurrently
// tracked nodes, i.e. incarnations ever added (Added) minus slot reuses
// (Recycled). While no node crashes this equals the number of AddNode
// calls.
func (e *Engine) N() int { return e.nodes.Len() }

// Added returns the number of node incarnations ever registered.
func (e *Engine) Added() int { return e.added }

// Recycled returns how many AddNode calls reused a freed arena slot.
func (e *Engine) Recycled() int { return e.recycled }

// StaleDrops returns the number of deliveries addressed to a stale handle
// — a departed incarnation whose slot was recycled before the message
// arrived — summed across shards. These drops are the recycling-era
// sibling of DeadDrops and are folded into TotalStats as such.
func (e *Engine) StaleDrops() uint64 {
	var t uint64
	for _, s := range e.shards {
		t += s.staleDrops
	}
	return t
}

// Shards returns the configured shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// Now returns the engine's global safe time (the start of the current
// window; all events before it have executed).
func (e *Engine) Now() time.Duration { return e.now }

// Lookahead returns the conservative window length computed by Run (zero
// before Run).
func (e *Engine) Lookahead() time.Duration { return e.lookahead }

// Alive reports whether the node is up.
func (e *Engine) Alive(id NodeID) bool {
	e.lookup("Alive", id)
	return e.live[Slot(id)]&liveAlive != 0
}

// Live returns the number of alive nodes.
func (e *Engine) Live() int { return e.alive }

// Crash takes a node out of the run for good: it stops sending and
// receiving, its timers and membership ticks die, and its heavy state —
// handler, sampler, uplink queue — is dropped, which makes engine memory
// O(live nodes) under sustained churn. Its arena slot queues in the free
// ring until AddNode takes it, oldest first — at this same barrier, if
// an admission follows — bumping the generation so every handle the old
// incarnation ever minted turns detectably stale: its deliveries, timers
// and ticks still in flight are dropped by the generation check. Until the
// slot is reused the node keeps its base latency (pair latencies of
// draining traffic still read it) and its traffic counters (NodeStats
// stays complete); at reuse the counters fold into the engine-wide
// departed accumulator, so TotalStats is conserved across any amount of
// churn.
// Crashing a node that is already down does nothing. Only legal during
// setup or inside an AtBarrier callback (shards are quiescent there).
func (e *Engine) Crash(id NodeID) {
	e.checkMutable("Crash")
	nd := e.lookup("Crash", id)
	w := &e.live[Slot(id)]
	if *w&liveAlive == 0 {
		return
	}
	*w &^= liveAlive
	e.alive--
	nd.handler = nil
	nd.flat = nil
	nd.sampler = nil
	nd.uplink = shaping.Shaper{}
	//lint:pooled the free ring's capacity is reused in place (takeFree resets or compacts it)
	e.free = append(e.free, int32(Slot(id)))
}

// BaseLatency returns the node's drawn base latency.
func (e *Engine) BaseLatency(id NodeID) time.Duration { return e.lookup("BaseLatency", id).base }

// NodeStats returns a snapshot of the node's traffic counters. DeadDrops
// — messages discarded because an endpoint crashed before delivery — are
// counted on the receiving node (delivery is the only point where the
// destination shard owns the check), not the sender. The counters stay
// readable after Crash; they fold into TotalStats' departed
// accumulator — and the handle turns stale — only when the slot is
// actually reused by a later AddNode.
func (e *Engine) NodeStats(id NodeID) simnet.Stats { return e.lookup("NodeStats", id).stats }

// TotalStats aggregates every incarnation's traffic counters: the
// departed accumulator (retired incarnations whose slots were recycled),
// plus every current slot, plus stale-handle drops — deliveries to
// recycled slots, counted per shard because the old incarnation's
// counters are already folded — as DeadDrops. Every sent message is
// accounted for exactly once across any amount of churn.
func (e *Engine) TotalStats() simnet.Stats {
	t := e.departed
	t.DeadDrops += e.StaleDrops()
	for i := range e.nodes.Len() {
		t.Add(e.nodes.At(i).stats)
	}
	return t
}

// Fired reports how many events have executed across all shards.
func (e *Engine) Fired() uint64 {
	var t uint64
	for _, s := range e.shards {
		t += s.fired()
	}
	return t
}

// Pending reports how many events are queued across all shards.
func (e *Engine) Pending() int {
	var t int
	for _, s := range e.shards {
		t += s.q.len()
	}
	return t
}

// ShardLoads snapshots every shard's load counters in shard order. Like
// all accessors it is safe at quiescent points: setup, an AtBarrier
// callback, or after Run.
func (e *Engine) ShardLoads() []telemetry.ShardLoad {
	out := make([]telemetry.ShardLoad, len(e.shards))
	for i, s := range e.shards {
		out[i] = telemetry.ShardLoad{
			Shard:       i,
			Events:      s.fired(),
			Timers:      s.timers,
			Delivers:    s.delivers,
			MemberTicks: s.memberTicks,
			Windows:     s.windowsRun,
			HeapPeak:    s.q.peak(),
			Pending:     s.q.len(),
			OutboxOut:   s.outboxOut,
			OutboxIn:    s.outboxIn,
			StaleDrops:  s.staleDrops,
		}
	}
	return out
}

// SetWallClock injects a wall-clock sampler (teleclock.Clock) used to
// profile where a run spends real time: window execution, cross-shard
// merge, barrier callbacks, and each shard's busy time. The engine samples
// it at phase edges — never per event — from every shard goroutine, so fn
// must be safe for concurrent use; the simulated run is bit-identical with
// and without a clock. Only legal before Run.
func (e *Engine) SetWallClock(fn func() int64) {
	if e.stage != stageSetup {
		panic("megasim: SetWallClock after Run started")
	}
	e.wallNow = fn
	e.wall.ShardBusyNS = make([]int64, len(e.shards))
}

// WallProfile returns the wall-time split sampled via SetWallClock
// (zero without a clock).
func (e *Engine) WallProfile() telemetry.WallProfile { return e.wall }

// AtBarrier schedules fn to run at virtual time t with every shard
// quiescent: all events before t have executed, none at or after t has,
// at any shard count. Callbacks may inspect any engine state (Live,
// Fired, Pending, ShardLoads) — an observer such as a progress snapshot
// is a callback that only reads — and may mutate any node (Crash,
// stopping node logic) or admit new ones (AddNode, AttachSampler). Events
// at exactly t run after the callback; callbacks at the same t run in
// registration order. A barrier ends the window it falls in, so
// registering one moves no event. Only legal before Run.
func (e *Engine) AtBarrier(t time.Duration, fn func()) {
	if t < 0 {
		panic(fmt.Sprintf("megasim: barrier at negative time %v", t))
	}
	if e.stage != stageSetup {
		panic("megasim: AtBarrier after Run")
	}
	e.globals = append(e.globals, globalEvent{at: t, fn: fn})
}

// NodeEnv returns the node's simulation environment: an implementation of
// the engine-facing Env contract (ID/Now/Send/After/Rand) used by
// internal/core. rng is the node's private random stream; the caller
// guarantees it is used by this node only.
//
// NodeEnv may be called before the node is added (PeekNextID names the
// handle the next AddNode will assign), which lets node logic and its
// environment be constructed together.
//
// The environments live by value in an engine-owned table, one per arena
// slot, in chunks that never move: NodeEnv allocates only when the arena
// outgrows its last chunk. The environment is the slot's, so NodeEnv for
// a later incarnation of the slot rebuilds it in place: the earlier
// incarnation's handle is then this one's. (Its node is gone by then: the
// engine drops what it still had scheduled, and its logic, stopped, sends
// nothing.)
func (e *Engine) NodeEnv(id NodeID, rng *rand.Rand) *NodeEnv {
	slot := Slot(id)
	e.envs.Extend(slot + 1)
	v := e.envs.At(slot)
	*v = NodeEnv{eng: e, sh: e.shards[e.shardOf(slot)], id: id, rng: rng}
	return v
}

// The chunk sizes of the node tables, as shifts: 256 slots a chunk,
// ≈115 KB of node state and 8 KB of environments.
const (
	nodeShift = 8
	envShift  = 8
)

// ShardOf returns where the engine runs a node: its shard, and its index
// among that shard's slots. Placement is round-robin by arena slot, so
// every incarnation of a slot runs on the same shard at the same index,
// and a shard's indexes are dense from zero: a caller keeping per-node
// state per shard can index it by the second result.
func (e *Engine) ShardOf(id NodeID) (shard, index int) {
	slot := Slot(id)
	return e.shardOf(slot), slot / len(e.shards)
}

// shardOf returns the shard an arena slot's nodes run on.
func (e *Engine) shardOf(slot int) int { return slot % len(e.shards) }

// minBase returns the smallest drawn base latency across all nodes.
func (e *Engine) minBase() time.Duration {
	min := infTime
	for i := range e.nodes.Len() {
		if b := e.nodes.At(i).base; b < min {
			min = b
		}
	}
	return min
}

// Run executes every event due at or before virtual time until. It can be
// called once per engine. Everything set up before it — sends included —
// is already in the shards' queues, so it goes straight to the first
// window or barrier, whichever comes first, and repeats.
func (e *Engine) Run(until time.Duration) error {
	if e.stage != stageSetup {
		return fmt.Errorf("megasim: Run called twice")
	}
	e.stage = stageDone
	if until < 0 {
		return fmt.Errorf("megasim: Run until %v, want >= 0", until)
	}
	if e.nodes.Len() > 0 {
		// Lookahead: no message can arrive sooner than the smallest pair
		// latency, which the model bounds below by the smallest node base
		// scaled by the worst-case spread and jitter factors.
		l := time.Duration(float64(e.minBase()) * (1 - e.cfg.Net.PairSpread) * (1 - e.cfg.Net.JitterFrac))
		if l <= 0 {
			return fmt.Errorf("megasim: non-positive lookahead %v (base latencies must be positive, PairSpread and JitterFrac < 1)", l)
		}
		e.lookahead = l
	} else {
		e.lookahead = time.Millisecond
	}
	// Smallest base a runtime-admitted node may carry so that every pair
	// latency keeps respecting the lookahead: ceil inverts the truncating
	// multiplication above.
	e.admitBase = time.Duration(math.Ceil(float64(e.lookahead) /
		((1 - e.cfg.Net.PairSpread) * (1 - e.cfg.Net.JitterFrac))))
	sort.SliceStable(e.globals, func(i, j int) bool { return e.globals[i].at < e.globals[j].at })

	e.procs = int64(runtime.GOMAXPROCS(0))
	runningShards.Add(int64(len(e.shards)))
	e.stage = stageWindow
	defer e.stop()
	e.workerWg.Add(len(e.shards) - 1)
	for _, s := range e.shards[1:] {
		go s.work()
	}

	// horizon is one past the inclusive deadline: windows are half-open,
	// so events at exactly `until` execute in a final [until, until+1)
	// window: the deadline is inclusive.
	horizon := until + 1
	gi := 0
	for {
		t0 := infTime
		for _, s := range e.shards {
			if at, ok := s.nextAt(); ok && at < t0 {
				t0 = at
			}
		}
		tg := infTime
		if gi < len(e.globals) && e.globals[gi].at <= until {
			tg = e.globals[gi].at
		}
		if tg <= t0 && tg != infTime {
			// No shard event precedes the barrier callback: run it now.
			if tg > e.now {
				e.now = tg
			}
			// Advance every quiescent shard clock to the barrier instant
			// (all executed events lie strictly before it, all pending ones
			// at or after), so work a callback schedules — a Start timer or
			// first sampler tick of an admitted node — lands relative to
			// the barrier, never in a shard's past.
			for _, s := range e.shards {
				if s.now < tg {
					s.now = tg
				}
			}
			e.stage = stageBarrier
			var tb int64
			if e.wallNow != nil {
				tb = e.wallNow()
			}
			for gi < len(e.globals) && e.globals[gi].at == tg {
				e.globals[gi].fn()
				gi++
			}
			if e.wallNow != nil {
				e.wall.BarrierNS += e.wallNow() - tb
			}
			e.stage = stageWindow
			continue
		}
		if t0 >= horizon {
			break
		}
		// The one shard-count rule: a window lasts one lookahead only when
		// its events can send to another shard. One shard runs to the next
		// barrier or the horizon in one window; pops keep their order
		// however a window is cut, so the run is the same either way.
		wEnd := horizon
		if len(e.shards) > 1 && t0 <= horizon-e.lookahead {
			wEnd = t0 + e.lookahead
		}
		if tg < wEnd {
			wEnd = tg
		}
		e.phase(&e.wall.RunNS, opRun, wEnd)
		e.phase(&e.wall.MergeNS, opMerge, 0)
		e.now = wEnd
	}

	for _, s := range e.shards {
		if s.now < until {
			s.now = until
		}
	}
	e.now = until
	return nil
}

// phase runs one barrier-delimited phase on every shard — publishes it to
// the workers, runs shard 0's share, waits for the workers (one shard has
// none to wait for) — and adds its wall time to *ns when a clock is
// injected. opStop is only published.
func (e *Engine) phase(ns *int64, op uint8, t time.Duration) {
	var t0 int64
	if e.wallNow != nil {
		t0 = e.wallNow()
	}
	e.op, e.opT = op, t
	ep := e.epoch.Add(1)
	for _, s := range e.shards[1:] {
		s.park.wakeup()
	}
	if op == opStop {
		return
	}
	e.shards[0].runPhase(op, t)
	e.sup.await(&e.done, ep*uint64(len(e.shards)-1), runningShards.Load() <= e.procs)
	if e.wallNow != nil {
		*ns += e.wallNow() - t0
	}
}

// stop ends Run on every exit path, a panic in an AtBarrier callback or a
// shard-0 handler included: workers finish a phase in flight, then exit.
func (e *Engine) stop() {
	e.sup.await(&e.done, e.epoch.Load()*uint64(len(e.shards)-1), false)
	e.phase(nil, opStop, 0)
	e.workerWg.Wait()
	runningShards.Add(-int64(len(e.shards)))
	e.stage = stageDone
}

// staleMsg formats the uniform stale-handle panic message.
func (e *Engine) staleMsg(op string, id NodeID) string {
	//lint:coldpath only a stale-handle panic's message is formatted here
	return fmt.Sprintf("megasim: %s: stale handle %d (slot %d is at generation %d, handle carries %d): the node departed and its slot was recycled", op, id, Slot(id), e.live[uint32(id)&slotMask]>>liveGenShift, Gen(id))
}

// send transmits a message with the network model's UDP semantics:
// drop-tail congestion at the sender's shaped uplink, Bernoulli loss, crash
// silences. It executes on the sending node's shard and is the one body
// every route into the network shares — the typed NodeEnv.SendIDs and
// SendServe, and the generic Send, SendFrom and membership emissions
// through unpack. A message that survives is queued for delivery on the
// destination's shard — from inside a window, a message to another shard
// waits in an outbox until the window ends; at setup or in a barrier
// callback it goes straight into that shard's queue — and send reports
// that it was kept; p's list is not referenced once send returns,
// its boxed message only by the record. A send from a stale handle — node
// logic that outlived its slot's recycling — drops silently exactly like a
// send from a crashed node: it was never counted sent, so conservation
// holds. The loss and jitter draws are the sender's, so they follow its
// own program order.
func (e *Engine) send(sh *shard, from, to NodeID, p payload) (kept bool) {
	tslot := uint32(to) & slotMask
	if int32(to) < 0 || int(tslot) >= e.nodes.Len() {
		panic(fmt.Sprintf("megasim: send: unknown node %d (slot %d outside the %d-slot arena)", to, tslot, e.nodes.Len()))
	}
	fslot := uint32(from) & slotMask
	if int32(from) < 0 || int(fslot) >= e.nodes.Len() {
		panic(fmt.Sprintf("megasim: send: unknown node %d (slot %d outside the %d-slot arena)", from, fslot, e.nodes.Len()))
	}
	fw := e.live[fslot]
	if !sameGen(fw, from) {
		// Silent, like a crashed sender: the message is never counted sent,
		// so TotalStats' conservation identity (sent == received + random +
		// dead drops) stays exact. StaleDrops counts only *deliveries* to
		// recycled slots — those were counted sent and must balance.
		return false
	}
	if fw&liveAlive == 0 {
		return false
	}
	src := e.nodes.At(int(fslot))
	// The bandwidth limiter throttles application bytes only.
	size := p.wireSize() - wire.UDPOverheadBytes
	now := sh.now
	depart, ok := src.uplink.Enqueue(now, size)
	if !ok {
		src.stats.CongestionDrops++
		return false
	}
	k := p.kind
	src.stats.SentMsgs[k]++
	src.stats.SentBytes[k] += uint64(size)
	if e.cfg.Net.LossRate > 0 && src.rng.Float64() < e.cfg.Net.LossRate {
		src.stats.RandomDrops++
		return false
	}
	at := depart + e.pairLatency(src, from, to)
	switch d := e.shardOf(int(tslot)); {
	case d == sh.id:
		sh.pushDelivery(at, from, to, int32(size), p)
	case e.stage != stageWindow:
		// No window runs, so no other goroutine touches the destination.
		e.shards[d].pushDelivery(at, from, to, int32(size), p)
	default:
		sh.outboxOut++
		sh.outbox[d].push(at, from, to, int32(size), p)
	}
	return true
}

// sendMsg is send for a boxed message. A boxed SERVE rides in its record;
// one the network drops at once gives its pooled backing back here, the
// others when their record is released.
func (e *Engine) sendMsg(sh *shard, from, to NodeID, msg wire.Message) {
	if !e.send(sh, from, to, sh.unpack(msg)) {
		if serve, ok := msg.(wire.Serve); ok {
			wire.RecycleServe(serve)
		}
	}
}

// deliver hands the message ev names to its destination; the caller
// releases a record afterwards. A message that rides in its event
// (evDeliverID) carries its one id, kind and size there, and is handed over
// in the shard's one-id scratch list; any other is read from its slab
// record. It executes on the destination node's shard; the sender's
// liveness word is stable between barriers, so the cross-shard read is
// race-free. SHUFFLE messages are membership traffic: they go to the node's
// sampler (which may answer — the reply departs through the node's own
// shaped uplink), never to the protocol handler. A node without a sampler
// drops them silently, like any unknown datagram.
//
// A delivery addressed to a stale handle — the destination incarnation
// departed and its slot was recycled while the message was in flight —
// is counted on the shard (StaleDrops): the new occupant never sees it.
// Past that, one rule: a LEAVE needs only a live destination, and every
// other kind also needs its sender's incarnation alive. A graceful
// departure hands its farewells to the network and crashes in the same
// barrier, its slot perhaps reused at once, and a datagram in flight is
// not recalled when its sender dies: delivering the LEAVE after the sender
// is gone is the point of it. A message that fails the rule dead-drops on
// the destination — it was counted sent while its sender was live.
func (e *Engine) deliver(sh *shard, ev *event) {
	tslot := uint32(ev.to) & slotMask
	tw := e.live[tslot]
	if !sameGen(tw, ev.to) {
		sh.staleDrops++
		return
	}
	// p's list aliases the event's scratch or the record: a handler that
	// sends may grow the slab, but the list stays readable either way.
	var p payload
	var size int32
	if ev.kind == evDeliverID {
		sh.one[0] = stream.PacketID(ev.ref)
		p, size = payload{kind: wire.Kind(ev.tkind), ids: sh.one[:]}, int32(ev.size)
	} else {
		rec := sh.msgs.At(int(ev.ref))
		p, size = sh.payload(rec), rec.size
	}
	k := p.kind
	dst := e.nodes.At(int(tslot))
	if tw&liveAlive == 0 || (k != wire.KindLeave && e.live[uint32(ev.from)&slotMask] != aliveWord(ev.from)) {
		dst.stats.DeadDrops++
		return
	}
	dst.stats.RecvMsgs[k]++
	dst.stats.RecvBytes[k] += uint64(size)
	switch {
	case k == wire.KindShuffle || k == wire.KindLeave:
		// Membership traffic — view exchanges and graceful-departure
		// announcements — goes to the node's sampler (which may answer; a
		// LEAVE never does), staying on the same flat event path as
		// everything else. A SHUFFLE is rebuilt in the shard's scratch
		// message, valid for the call only; a LEAVE arrives as it was boxed.
		if dst.sampler != nil {
			msg := p.other
			if msg == nil {
				msg = sh.shuffle(p)
			}
			if reply, ok := dst.sampler.Handle(ev.from, msg); ok {
				e.sendMsg(sh, ev.to, reply.To, reply.Msg)
			}
		}
	case dst.flat == nil || p.other != nil:
		dst.handler.HandleMessage(ev.from, p.message())
	default:
		dst.flat.HandleIDs(ev.from, k, p.ids)
	}
}

// SendFrom transmits msg from one node to another with the normal UDP
// semantics, from outside the sender's own event context. Legal during
// setup and inside an AtBarrier callback, where every shard is quiescent:
// churn executors use it to transmit a gracefully departing node's LEAVE
// emissions before crashing it. The send runs on the sender's shard — the
// uplink shaping, loss draw, and jitter come from the node's own stream,
// as its other sends' do — and the delivery is in the destination's queue
// when SendFrom returns, whichever shard that is, so runs, and what a
// later callback at the same instant observes, stay bit-identical for a
// fixed seed at every shard count.
func (e *Engine) SendFrom(from, to NodeID, msg wire.Message) {
	e.checkMutable("SendFrom")
	sh := e.shards[e.shardOf(Slot(from))]
	e.sendMsg(sh, from, to, msg)
}

// pairLatency is the model's pair latency from the sender a, whose state
// is src, to b: the mean of the node bases, scaled by the ordered pair's
// fixed spread factor, plus per-message jitter drawn from the sender's
// stream. The sender is always current (send gen-checks it), but b may be
// a stale handle — draining traffic to a recycled slot — whose base is
// drawn again from the stream its handle keys; both bases respect the
// admit clamp, so the delivery time stays inside the lookahead bound
// either way. PairFactor hashes the full handles, so a stale pair's spread
// factor is deterministic too.
func (e *Engine) pairLatency(src *nodeState, a, b NodeID) time.Duration {
	bslot := uint32(b) & slotMask
	bb := e.nodes.At(int(bslot)).base
	if !sameGen(e.live[bslot], b) {
		r := e.nodeRand(b)
		bb = e.drawBase(&r)
	}
	base := float64(src.base+bb) / 2
	if e.cfg.Net.PairSpread > 0 {
		base *= simnet.PairFactor(e.pairSalt, a, b, e.cfg.Net.PairSpread)
	}
	if e.cfg.Net.JitterFrac > 0 {
		base *= 1 + e.cfg.Net.JitterFrac*(2*src.rng.Float64()-1)
	}
	if base < 0 {
		base = 0
	}
	return time.Duration(base)
}

// liveNode returns the node id names while that incarnation is alive, nil
// once it has crashed or departed: whether its timers and ticks still run.
func (e *Engine) liveNode(id NodeID) *nodeState {
	if s := Slot(id); s < len(e.live) && e.live[s] == aliveWord(id) {
		return e.nodes.At(s)
	}
	return nil
}

// lookup resolves a node handle for an accessor, panicking with a named,
// actionable message when the handle cannot resolve: slot outside the
// arena (the id was never minted) or generation mismatch (the incarnation
// departed and its slot was recycled). op names the caller in the panic.
func (e *Engine) lookup(op string, id NodeID) *nodeState {
	slot := Slot(id)
	if int32(id) < 0 || slot >= e.nodes.Len() {
		panic(fmt.Sprintf("megasim: %s: unknown node %d (slot %d outside the %d-slot arena)", op, id, slot, e.nodes.Len()))
	}
	if !sameGen(e.live[slot], id) {
		panic(e.staleMsg(op, id))
	}
	return e.nodes.At(slot)
}

// NodeEnv adapts one node to the engine. It satisfies core.Env and, for
// nodes whose handler is a TimerHandler, core.TimerEnv: flat timers, and
// typed sends that put ids straight into a message record.
type NodeEnv struct {
	eng *Engine
	sh  *shard
	id  NodeID
	rng *rand.Rand
}

// ID returns the node id.
func (v *NodeEnv) ID() NodeID { return v.id }

// Now returns the node's shard-local virtual time.
func (v *NodeEnv) Now() time.Duration { return v.sh.now }

// Rand returns the node's private random stream.
func (v *NodeEnv) Rand() *rand.Rand { return v.rng }

// Send transmits a message with UDP semantics. The engine copies the
// lists of a PROPOSE or REQUEST, which are free for reuse when Send
// returns; any other message travels as it was boxed, and a SERVE backing
// from wire.SplitServeInto goes back to wire's pool once the message is
// delivered or dropped.
func (v *NodeEnv) Send(to NodeID, msg wire.Message) { v.eng.sendMsg(v.sh, v.id, to, msg) }

// SendIDs transmits a PROPOSE or REQUEST (kind) of ids, as Send would the
// boxed message, without boxing it: the ids are copied into the in-flight
// record and the caller keeps the slice.
func (v *NodeEnv) SendIDs(to NodeID, kind wire.Kind, ids []stream.PacketID) {
	if kind != wire.KindPropose && kind != wire.KindRequest {
		panic(fmt.Sprintf("megasim: SendIDs of a %v: only PROPOSE and REQUEST carry ids", kind))
	}
	v.eng.send(v.sh, v.id, to, payload{kind: kind, ids: ids})
}

// SendServe transmits one SERVE of the packets ids names, each carrying
// payloadBytes (the caller has cut them to the MTU, wire.CutServeIDs),
// without boxing it and without the packets: it costs
// wire.ServeSize(len(ids), payloadBytes), as the SERVE of those packets
// would, the ids are copied into the in-flight record and the caller
// keeps the slice. The receiver gets the ids through HandleIDs; its
// handler must be a TimerHandler.
func (v *NodeEnv) SendServe(to NodeID, ids []stream.PacketID, payloadBytes int) {
	v.eng.send(v.sh, v.id, to, payload{kind: wire.KindServe, width: int32(payloadBytes), ids: ids})
}

// After schedules fn once after d on the node's shard; the returned
// function cancels it. The timer dies with its node: once the node has
// crashed, fn is dropped unexecuted and uncounted, as a cancelled timer
// is.
func (v *NodeEnv) After(d time.Duration, fn func()) func() { return v.sh.after(d, v.id, fn) }

// FlatTimers reports whether the flat route reaches the node's logic: the
// node has been added and its handler is a TimerHandler. Node logic that
// is not itself the registered handler (it sits behind a wrapper the
// engine delivers to) gets false; it arms its timers through After, sends
// through Send and receives through HandleMessage.
func (v *NodeEnv) FlatTimers() bool {
	slot := Slot(v.id)
	if slot >= len(v.eng.live) {
		return false
	}
	return sameGen(v.eng.live[slot], v.id) && v.eng.nodes.At(int(slot)).flat != nil
}

// AfterTimer schedules OnTimer(kind, arg) on the node's TimerHandler once
// after d, as one by-value event: no closure, no cancel function — the
// handler ignores the timers it no longer wants. Like an After timer, it
// dies with its node, and it is queued as After queues one, by its time and
// its node, so a run is the same event for event over either call.
func (v *NodeEnv) AfterTimer(d time.Duration, kind uint8, arg uint32) {
	v.sh.afterNode(d, v.id, kind, arg)
}
