// Package megasim is the discrete-event simulation engine, from the
// paper's 230-node testbed to internet-scale gossip experiments: it runs
// the network model internal/simnet defines (capped drop-tail uplinks,
// heterogeneous lognormal latencies, ambient UDP loss, crash failures) and
// can partition the nodes across per-core shards so 100k+-node deployments
// complete in minutes instead of hours. One shard runs inline on the
// calling goroutine.
//
// # Architecture
//
// Each shard owns a slice of the nodes, a private event scheduler, and a
// private random stream. Shards advance together through conservative time
// windows: the window length is the engine's lookahead — a lower bound on
// the one-way latency of any message, derived from the latency model —
// so an event executing anywhere inside the current window can only
// produce cross-shard work for later windows. Within a window every shard
// runs independently (no locks on the hot path); at the window barrier,
// cross-shard messages are handed over through per-(source, destination)
// outboxes and folded into the destination scheduler in (time, seq) order.
// The goroutine calling Run executes shard 0 and hands the other shards'
// phases to worker goroutines through an atomic epoch (see waiter).
//
// # Determinism
//
// A run is a pure function of (seed, shard count, node/topology setup):
//
//   - every random draw comes from a per-shard or per-node stream, never
//     from a source shared across goroutines;
//   - each shard's scheduler is a strict (time, seq) priority queue, and
//     cross-shard arrivals are merged at barriers in a fixed shard order,
//     so sequence numbers — and therefore tie-breaks — never depend on
//     goroutine interleaving;
//   - global actions (churn bursts) run at barriers via AtBarrier, with
//     every shard quiescent.
//
// Changing the shard count changes which RNG stream serves which draw, so
// results are comparable but not bit-identical across shard counts; for a
// fixed (seed, shards) pair they are bit-identical across runs and across
// GOMAXPROCS settings.
//
// # Event representation
//
// Rather than a closure and a heap node per message, megasim stores
// events by value in the shard's scheduler: one
// 32-byte record per in-flight message, timer or tick, holding no pointer,
// so the pending set is memory the collector never scans. What an event
// carries lives in per-shard side tables the record names by index:
//
//   - an in-flight message is one 64-byte record of the shard's message
//     slab (or, crossing shards, of an outbox until the merge): kind, size,
//     and a copy of the id list — a SERVE's as the ids of its packets, a
//     SHUFFLE's entries as (id, age) word pairs — inline for up to nine ids
//     (a SERVE of the paper's packets is one) or a SHUFFLE of up to four
//     entries, otherwise in a range of the shard's spill arena (an
//     outbox's bump region on the way across) — or, for a boxed SERVE,
//     LEAVE, FEED-ME (the last two zero-size, so boxing them allocates
//     nothing) and foreign types, the boxed wire.Message as sent. Every
//     send ends in exactly one delivery or drop, after which the record
//     lets go of its message — a boxed SERVE's pooled backing back to
//     wire's pool — and it and its range return to their free lists;
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
// TestEventRecordIsPointerFree and TestMessageRecordSize to the records'
// shapes, and CI fails on any "moved to heap" the compiler reports in the
// package.
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
// barriers exactly like streaming messages, so runs with membership
// enabled keep the bit-identical fixed-(seed, shards) guarantee.
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
// Run stays a valid bound. Departures are Crash (the tick chain ends,
// descriptors elsewhere age out) followed, once the experiment has folded
// the node's metrics, by Release, which queues the arena slot for reuse.
// Because admission, crashes, and releases all run at barriers in
// schedule order and draw from the setup streams, runs with runtime churn
// keep full replay determinism.
//
// Engine memory is O(live nodes), not O(nodes ever): a released slot
// waits out one lookahead window in a quarantine ring — after that no
// in-flight event can still address the old incarnation without crossing
// a barrier — then re-enters service through a FIFO free list. NodeID is
// a generation-tagged handle (slot index + per-slot incarnation counter),
// so any reference that survives its node — an in-flight delivery, an
// outbox entry, a descriptor in a sampler's view, an experiment-side
// index — fails the generation check instead of reaching the slot's new
// occupant: deliveries to stale handles are counted (StaleDrops, folded
// into TotalStats as dead traffic) or, under Config.PanicOnStale, panic.
// Departed incarnations' traffic counters fold into a departed
// accumulator at reuse and their base latencies move to a per-slot
// prevBase side table (draining traffic keeps deterministic latencies),
// so TotalStats conserves every counter across any amount of churn.
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
	"gossipstream/internal/stream"
	"gossipstream/internal/telemetry"
	"gossipstream/internal/wire"
)

// NodeID identifies a node incarnation: a generation-tagged handle packing
// an arena slot index (low slotBits bits) and the slot's generation counter
// (the bits above). While no slot has ever been recycled — every run
// without Release, and every run's setup phase — generations are all zero
// and ids are dense integers starting at 0 in AddNode order, exactly as
// before. Once Release returns slots to the free list, AddNode may mint a
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
	// retires permanently instead of re-entering the free list: it could
	// no longer mint a handle distinguishable from a stale one.
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
// record: the lists are valid for the call only. A boxed SERVE arrives as
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
// alias the engine's message record and are valid for the call only: a
// handler copies the ids it keeps.
type TimerHandler interface {
	OnTimer(kind uint8, arg uint32)
	HandleIDs(from NodeID, kind wire.Kind, ids []stream.PacketID)
}

// QueueKind selects the per-shard event-scheduler implementation. Both
// kinds maintain the same strict (at, seq) total order, so for a fixed
// (seed, shards) pair the simulated run is bit-identical across kinds —
// the choice only changes wall time.
type QueueKind uint8

const (
	// QueueHeap is the 4-ary min-heap: O(log n) per operation,
	// insensitive to the shape of the schedule. The default.
	QueueHeap QueueKind = iota
	// QueueCalendar is the calendar queue with a ladder-style overflow
	// rung: O(1) amortized enqueue/dequeue when event spacing is stable —
	// which gossip traffic, concentrated around the shuffle/tick period,
	// is. Self-tunes its bucket width and resizes on skew.
	QueueCalendar
)

// String names the queue kind as the -queue flag spells it.
func (k QueueKind) String() string {
	switch k {
	case QueueHeap:
		return "heap"
	case QueueCalendar:
		return "calendar"
	default:
		return fmt.Sprintf("QueueKind(%d)", uint8(k))
	}
}

// ParseQueue parses a -queue flag value ("heap" or "calendar").
func ParseQueue(s string) (QueueKind, error) {
	switch s {
	case "heap":
		return QueueHeap, nil
	case "calendar":
		return QueueCalendar, nil
	default:
		return 0, fmt.Errorf("megasim: unknown queue kind %q (want heap or calendar)", s)
	}
}

// Config controls the engine. The network model is simnet's.
type Config struct {
	// Net carries the latency, jitter, and loss model. The engine requires
	// PairSpread < 1 and JitterFrac < 1 so a positive latency lower bound
	// (the lookahead) exists.
	Net simnet.Config
	// Shards is the number of parallel partitions, normally GOMAXPROCS.
	Shards int
	// Seed drives the engine's internal random streams (latency draws,
	// per-message jitter and loss). Node logic carries its own streams.
	Seed int64
	// Queue selects the per-shard scheduler (QueueHeap default). Results
	// are bit-identical across kinds; only wall time differs.
	Queue QueueKind
	// PanicOnStale turns stale-handle events — a delivery addressed to a
	// departed incarnation whose slot was recycled, or a send from one —
	// into panics instead of drops (deliveries counted in StaleDrops,
	// sends dropped silently like a crashed sender's). Tests set it to
	// prove detection; long churn runs leave it off, where draining
	// traffic addressed to recycled slots is expected and merely counted.
	PanicOnStale bool
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
	// prevBase is the compact side table for draining traffic: the base
	// latency of the slot's previous incarnation, set when the slot is
	// recycled. pairLatency reads it for sends still addressed to a stale
	// handle, keeping their delivery times deterministic and inside the
	// lookahead bound without retaining departed nodes' slots. (A handle
	// two or more generations old reads the most recently departed base —
	// an approximation for traffic that is dead on arrival anyway.)
	prevBase time.Duration
	// gen is the slot's current generation; a handle resolves here only
	// when its Gen matches. Incremented when the slot is recycled, so
	// every handle a quarantined slot ever minted stays resolvable (and
	// dead-drops normally) until reuse actually happens.
	gen      uint16
	alive    bool
	released bool
	// stats is written only by the node's own shard (sends from the node,
	// deliveries to the node), never concurrently.
	stats simnet.Stats
}

// quarEntry parks a released slot until reuse is provably safe: one full
// lookahead window after the Release barrier, by when every delivery the
// old incarnation could still be addressed by has executed or crossed a
// barrier (where the generation check catches it).
type quarEntry struct {
	slot int32
	at   time.Duration // engine time of the Release
}

type globalEvent struct {
	at time.Duration
	fn func()
}

// Engine is a sharded simulation of a message-passing network. Build it
// single-threaded (New, AddNode, AtBarrier, Start-ing node logic), then
// call Run once. Accessors are safe again after Run returns.
type Engine struct {
	cfg       Config
	shards    []*shard
	nodes     []nodeState
	setup     *rand.Rand
	tickRng   *rand.Rand
	pairSalt  uint64
	lookahead time.Duration
	// admitBase is the smallest base latency a node admitted at runtime may
	// carry: the lookahead was derived from the setup population's minimum
	// base, so a later draw below it would break the conservative window
	// bound. Runtime draws clamp to it.
	admitBase time.Duration
	globals   []globalEvent
	now       time.Duration
	running   bool
	// inBarrier is true while AtBarrier callbacks execute: every shard is
	// quiescent there, which is what makes runtime node admission
	// (AddNode/AttachSampler from a callback) safe.
	inBarrier bool
	ran       bool
	// live counts alive nodes incrementally (AddNode/Crash), so progress
	// snapshots need no O(n) scan.
	live int
	// added counts AddNode calls (incarnations ever), recycled the subset
	// that reused a freed slot; N() — the arena size — is added minus
	// recycled.
	added    int
	recycled int

	// Slot recycling state, all touched only at quiescent points (setup,
	// barrier callbacks): released slots queue in the quarantine ring in
	// Release order, drain to the free list once their window expires, and
	// AddNode consumes the free list FIFO — a deterministic recycling
	// order for a deterministic schedule of Releases.
	quar     []quarEntry
	quarHead int
	free     []int32
	freeHead int
	// departed accumulates the traffic counters of retired incarnations,
	// folded out of a slot when it is recycled, so TotalStats stays
	// complete across any amount of churn.
	departed simnet.Stats

	// Telemetry: wallNow is an injected wall-clock sampler (teleclock.Clock)
	// read at phase edges by the supervisor and by each shard — never per
	// event — so enabling it cannot perturb the simulated run; snapFn is a
	// periodic snapshot hook called between conservative windows with every
	// shard quiescent, deliberately NOT a barrier: it never truncates a
	// window, so runs with and without snapshots stay bit-identical.
	wallNow  func() int64
	wall     telemetry.WallProfile
	snapFn   func(at time.Duration)
	snapEach time.Duration
	snapNext time.Duration

	// The phase barrier: op and opT are written before epoch is bumped, and
	// epoch e is done at done = e × (shards − 1). procs is GOMAXPROCS at Run.
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
	case cfg.Queue > QueueCalendar:
		return nil, fmt.Errorf("megasim: unknown queue kind %d", cfg.Queue)
	}
	// tickRng de-phases membership tick schedules on a stream separate
	// from setup so attaching samplers never perturbs topology draws
	// (base latencies stay identical across membership modes, keeping
	// full-view and partial-view runs network-comparable).
	e := &Engine{cfg: cfg, setup: NewRand(cfg.Seed), tickRng: NewRand(cfg.Seed ^ 0x6d656d62)}
	e.sup.wake = make(chan struct{}, 1)
	e.pairSalt = e.setup.Uint64()
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		e.shards[i] = newShard(e, i, NewRand(cfg.Seed+0x5DEECE66D*int64(i+1)))
	}
	return e, nil
}

// AddNode registers a node with the given upload cap (bits per second;
// shaping.Unlimited for none) and uplink queue bound in bytes, drawing its
// base latency from the configured distribution. Nodes are assigned to
// shards round-robin by arena slot, so a recycled slot's new incarnation
// runs on the same shard as its predecessor.
//
// AddNode is legal during setup and — runtime admission, the substrate of
// sustained-churn experiments — inside an AtBarrier callback, where every
// shard is quiescent: the new node takes the oldest recyclable slot if the
// free list has one (its handle carries the slot's next generation) and
// extends the arena otherwise, and its first events (Start timers, sampler
// ticks) are scheduled relative to the barrier time. A base latency drawn
// at runtime is clamped from below so the engine's conservative lookahead,
// fixed at Run from the setup population, stays a valid lower bound on
// every pair latency.
func (e *Engine) AddNode(h Handler, upBps, queueBytes int64) NodeID {
	if h == nil {
		panic("megasim: nil handler")
	}
	e.checkMutable("AddNode")
	base := e.cfg.Net.BaseLatencyMedian
	if base <= 0 {
		base = time.Millisecond
	}
	if e.cfg.Net.BaseLatencySigma > 0 {
		factor := math.Exp(e.setup.NormFloat64() * e.cfg.Net.BaseLatencySigma)
		base = time.Duration(float64(base) * factor)
	}
	if e.running && base < e.admitBase {
		base = e.admitBase
	}
	var up shaping.Shaper
	if upBps != shaping.Unlimited {
		up = *shaping.NewShaper(upBps, queueBytes)
	}
	flat, _ := h.(TimerHandler)
	e.added++
	e.live++
	if slot, ok := e.takeFree(); ok {
		nd := &e.nodes[slot]
		// The retired incarnation's counters fold into the departed
		// accumulator (TotalStats stays complete — including dead drops
		// that accrued during quarantine, after any experiment-side fold)
		// and its base latency moves to the prevBase side table for
		// traffic still addressed to its stale handles.
		e.departed.Add(nd.stats)
		gen := nd.gen + 1
		*nd = nodeState{handler: h, flat: flat, uplink: up, base: base, prevBase: nd.base, gen: gen, alive: true}
		e.recycled++
		return makeID(slot, gen)
	}
	if len(e.nodes) > slotMask {
		panic(fmt.Sprintf("megasim: arena full: %d slots in use (handle space holds %d); release departed nodes or raise slotBits", len(e.nodes), slotMask+1))
	}
	e.nodes = append(e.nodes, nodeState{handler: h, flat: flat, uplink: up, base: base, alive: true})
	return NodeID(len(e.nodes) - 1)
}

// PeekNextID returns the handle the next AddNode will assign — the oldest
// recyclable slot at its next generation, or a fresh arena append — without
// consuming it. Callers that construct a node's environment or protocol
// state (both seeded by id) before registering it use this to know the id
// up front; the next AddNode is guaranteed to return the same handle.
func (e *Engine) PeekNextID() NodeID {
	e.drainQuarantine()
	if e.freeHead < len(e.free) {
		slot := e.free[e.freeHead]
		return makeID(int(slot), e.nodes[slot].gen+1)
	}
	return NodeID(len(e.nodes))
}

// drainQuarantine moves slots whose quarantine expired — one full
// lookahead window past their Release — onto the free list, in Release
// order. A slot whose generation space is exhausted retires permanently
// instead of re-entering the list (it could no longer mint a handle
// distinguishable from a stale one); at 10 generation bits that leaks one
// arena slot per 1023 reuses of the same slot, a bounded cost. Runs only
// at quiescent points (AddNode, PeekNextID — setup or barrier callbacks),
// where e.now is the barrier time every pending delivery is at or after.
//
// The ring reuses its backing: a full drain resets it, a partial one
// compacts the un-expired tail to the front once the drained head passes
// the midpoint (amortized O(1) per Release). Under steady churn there are
// always fresh releases in the tail, so without the compaction the
// backing would grow by one entry per departure forever — the arena would
// be O(live nodes) but the quarantine ring O(total joins).
func (e *Engine) drainQuarantine() {
	for e.quarHead < len(e.quar) {
		q := e.quar[e.quarHead]
		if e.now < q.at+e.lookahead {
			break
		}
		e.quarHead++
		if e.nodes[q.slot].gen < maxGen {
			//lint:pooled free-list capacity is reused in place (takeFree resets or compacts it)
			e.free = append(e.free, q.slot)
		}
	}
	if e.quarHead == len(e.quar) {
		e.quar, e.quarHead = e.quar[:0], 0
	} else if e.quarHead >= (len(e.quar)+1)/2 {
		n := copy(e.quar, e.quar[e.quarHead:])
		e.quar, e.quarHead = e.quar[:n], 0
	}
}

// takeFree pops the oldest recyclable slot, if any. Like the quarantine
// ring, the list reuses its backing: reset when exhausted, compacted to
// the front once the consumed head passes the midpoint (a population that
// shrinks faster than it readmits would otherwise grow the backing by one
// entry per departure forever).
func (e *Engine) takeFree() (int, bool) {
	e.drainQuarantine()
	if e.freeHead >= len(e.free) {
		e.free, e.freeHead = e.free[:0], 0
		return 0, false
	}
	slot := e.free[e.freeHead]
	e.freeHead++
	if e.freeHead >= (len(e.free)+1)/2 {
		n := copy(e.free, e.free[e.freeHead:])
		e.free, e.freeHead = e.free[:n], 0
	}
	return int(slot), true
}

// checkMutable panics unless the engine is in a state where topology may
// change: setup (before Run) or an AtBarrier callback (shards quiescent).
func (e *Engine) checkMutable(op string) {
	if e.running {
		if !e.inBarrier {
			panic(fmt.Sprintf("megasim: %s during Run outside a barrier callback", op))
		}
		return
	}
	if e.ran {
		panic(fmt.Sprintf("megasim: %s after Run", op))
	}
}

// AttachSampler registers a dynamic membership record for an added node
// and schedules its protocol: the engine calls d.Tick() every period
// (first tick de-phased by a random offset so the population does not
// shuffle in lock-step) and routes SHUFFLE deliveries to d.Handle instead
// of the node's handler. Emissions travel the normal lossy send path, so
// membership traffic shares the node's capped uplink with the stream.
// Cross-shard shuffles ride the same per-(src,dst) outboxes as every
// other message and are folded in at barriers in deterministic shard
// order. A crashed node's tick chain ends at its next tick; its
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
	sh := e.shards[Slot(id)%len(e.shards)]
	sh.pushMemberTick(e.now+time.Duration(e.tickRng.Int63n(int64(period))), id)
}

// memberTick runs one membership round for the node: dead nodes end their
// tick chain (no cancellation handshake needed — exactly what makes
// barrier-time churn safe), live ones may emit one shuffle and are
// rescheduled one period out. A generation mismatch also ends the chain
// silently: the tick belongs to a departed incarnation whose slot was
// recycled, and letting it through would tick the new occupant's sampler
// twice per period. This is the designed end of the chain, not a stale
// event worth counting — ticks are scheduled a full period ahead, far
// past the quarantine window.
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
// (Recycled). While Release is never called this equals the number of
// AddNode calls, as before.
func (e *Engine) N() int { return len(e.nodes) }

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
func (e *Engine) Alive(id NodeID) bool { return e.lookup("Alive", id).alive }

// Crash silences a node: it stops sending and receiving. Only legal during
// setup or inside an AtBarrier callback (shards are quiescent there).
func (e *Engine) Crash(id NodeID) {
	nd := e.lookup("Crash", id)
	if nd.alive {
		nd.alive = false
		e.live--
	}
}

// Live returns the number of alive nodes.
func (e *Engine) Live() int { return e.live }

// Release frees a crashed node's heavy state — handler, sampler, uplink
// queue — and queues its arena slot for recycling, making engine memory
// O(live nodes) under sustained churn. The slot parks in a quarantine
// ring for one full lookahead window (by then no in-flight event can
// still be addressed to the old incarnation without crossing a barrier,
// where the generation check catches it), then joins the free list;
// AddNode consumes freed slots FIFO, bumping the generation so every
// handle the old incarnation ever minted turns detectably stale. Until
// the slot is actually reused the released node keeps its base latency
// (pair latencies of draining traffic still read it) and its traffic
// counters (NodeStats stays complete); at reuse the counters fold into
// the engine-wide departed accumulator, so TotalStats is conserved
// across any amount of churn. Only legal during setup or inside an
// AtBarrier callback, and only for a crashed, not-yet-released node.
func (e *Engine) Release(id NodeID) {
	e.checkMutable("Release")
	nd := e.lookup("Release", id)
	if nd.alive {
		panic(fmt.Sprintf("megasim: Release of live node %d", id))
	}
	if nd.released {
		panic(fmt.Sprintf("megasim: Release of already released node %d", id))
	}
	nd.released = true
	nd.handler = nil
	nd.flat = nil
	nd.sampler = nil
	nd.uplink = shaping.Shaper{}
	//lint:pooled quarantine ring capacity is reused in place (drainQuarantine resets or compacts it)
	e.quar = append(e.quar, quarEntry{slot: int32(Slot(id)), at: e.now})
}

// BaseLatency returns the node's drawn base latency.
func (e *Engine) BaseLatency(id NodeID) time.Duration { return e.lookup("BaseLatency", id).base }

// NodeStats returns a snapshot of the node's traffic counters. DeadDrops
// — messages discarded because an endpoint crashed before delivery — are
// counted on the receiving node (delivery is the only point where the
// destination shard owns the check), not the sender. The counters stay
// readable after Crash and Release; they fold into TotalStats' departed
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
	for i := range e.nodes {
		t.Add(e.nodes[i].stats)
	}
	return t
}

// Fired reports how many events have executed across all shards.
func (e *Engine) Fired() uint64 {
	var t uint64
	for _, s := range e.shards {
		t += s.fired
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
// all accessors it is safe at quiescent points: setup, an AtBarrier or
// snapshot callback, or after Run.
func (e *Engine) ShardLoads() []telemetry.ShardLoad {
	out := make([]telemetry.ShardLoad, len(e.shards))
	for i, s := range e.shards {
		out[i] = telemetry.ShardLoad{
			Shard:       i,
			Events:      s.fired,
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
	if e.ran || e.running {
		panic("megasim: SetWallClock after Run started")
	}
	e.wallNow = fn
	e.wall.ShardBusyNS = make([]int64, len(e.shards))
}

// WallProfile returns the wall-time split sampled via SetWallClock
// (zero without a clock).
func (e *Engine) WallProfile() telemetry.WallProfile { return e.wall }

// SetSnapshot registers fn to run on the supervisor goroutine at the
// first inter-window point at or past each multiple of every, with all
// shards quiescent (accessors like Live, Fired, ShardLoads are safe).
// Unlike AtBarrier it never truncates a conservative window, so a run
// with snapshots enabled is bit-identical to the same run without.
// Only legal before Run.
func (e *Engine) SetSnapshot(every time.Duration, fn func(at time.Duration)) {
	if e.ran || e.running {
		panic("megasim: SetSnapshot after Run started")
	}
	if every <= 0 {
		panic(fmt.Sprintf("megasim: SetSnapshot every %v, want > 0", every))
	}
	if fn == nil {
		panic("megasim: SetSnapshot with nil fn")
	}
	e.snapEach = every
	e.snapNext = every
	e.snapFn = fn
}

// AtBarrier schedules fn to run at virtual time t with every shard
// quiescent: all events before t have executed, none at or after t has.
// Callbacks may inspect or mutate any node (Crash, stopping node logic)
// and may admit new ones (AddNode, AttachSampler). Events at exactly t run
// after the callback. Only legal before Run.
func (e *Engine) AtBarrier(t time.Duration, fn func()) {
	if t < 0 {
		panic(fmt.Sprintf("megasim: barrier at negative time %v", t))
	}
	if e.ran || e.running {
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
func (e *Engine) NodeEnv(id NodeID, rng *rand.Rand) *NodeEnv {
	return &NodeEnv{eng: e, sh: e.shards[Slot(id)%len(e.shards)], id: id, rng: rng}
}

// minBase returns the smallest drawn base latency across all nodes.
func (e *Engine) minBase() time.Duration {
	min := infTime
	for i := range e.nodes {
		if e.nodes[i].base < min {
			min = e.nodes[i].base
		}
	}
	return min
}

// Run executes every event due at or before virtual time until. It can be
// called once per engine.
func (e *Engine) Run(until time.Duration) error {
	if e.ran {
		return fmt.Errorf("megasim: Run called twice")
	}
	e.ran = true
	if until < 0 {
		return fmt.Errorf("megasim: Run until %v, want >= 0", until)
	}
	if len(e.nodes) > 0 {
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

	parallel := len(e.shards) > 1
	e.procs = int64(runtime.GOMAXPROCS(0))
	runningShards.Add(int64(len(e.shards)))
	e.running = true
	defer e.stop()
	if parallel {
		e.workerWg.Add(len(e.shards) - 1)
		for _, s := range e.shards[1:] {
			go s.work()
		}
		// Fold any deliveries emitted during setup into the shard heaps so
		// the first next-event scan sees them.
		e.phase(&e.wall.MergeNS, opMerge, 0)
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
			e.inBarrier = true
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
			e.inBarrier = false
			// Fold cross-shard sends the callbacks emitted straight into
			// the destination queues. Every worker waits for the next epoch
			// here, so the supervisor-side fold is ordered: the done count
			// sequenced all prior shard writes before this point, and the
			// next epoch sequences these writes before the workers' reads.
			// Without the fold a barrier-emitted delivery stays invisible to
			// the next-event scan — lost outright if no later window runs.
			if parallel {
				for _, s := range e.shards {
					s.mergeInbound()
				}
			}
			continue
		}
		if t0 >= horizon {
			break
		}
		wEnd := horizon
		if parallel && t0 <= horizon-e.lookahead {
			wEnd = t0 + e.lookahead
		}
		if tg < wEnd {
			wEnd = tg
		}
		if parallel {
			e.phase(&e.wall.RunNS, opRun, wEnd)
			e.phase(&e.wall.MergeNS, opMerge, 0)
		} else if e.wallNow != nil {
			t0w := e.wallNow()
			e.shards[0].runPhase(opRun, wEnd)
			e.wall.RunNS += e.wallNow() - t0w
		} else {
			e.shards[0].runWindow(wEnd)
		}
		e.now = wEnd
		// Inter-window snapshot: every shard has finished the window and
		// (in the parallel case) every worker waits for the next epoch, so
		// the hook may read any engine state race-free. Runs never gain or
		// lose a window from this — the schedule above is untouched.
		if e.snapFn != nil && e.now >= e.snapNext {
			for e.snapNext <= e.now {
				e.snapNext += e.snapEach
			}
			e.snapFn(e.now)
		}
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
// the workers, runs shard 0's share, waits for the workers — and adds its
// wall time to *ns when a clock is injected. opStop is only published.
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
	if n := uint64(len(e.shards)); n > 1 {
		e.sup.await(&e.done, e.epoch.Load()*(n-1), false)
		e.phase(nil, opStop, 0)
		e.workerWg.Wait()
	}
	runningShards.Add(-int64(len(e.shards)))
	e.running, e.inBarrier = false, false
}

// noteStale records a stale-handle event observed on a shard's hot path:
// panic under Config.PanicOnStale (tests proving detection), else a flat
// per-shard counter (long churn runs, where draining traffic addressed to
// recycled slots is expected).
func (e *Engine) noteStale(sh *shard, op string, id NodeID) {
	if e.cfg.PanicOnStale {
		panic(e.staleMsg(op, id))
	}
	sh.staleDrops++
}

// staleMsg formats the uniform stale-handle panic/diagnostic message.
func (e *Engine) staleMsg(op string, id NodeID) string {
	//lint:coldpath only a stale-handle panic's message is formatted here
	return fmt.Sprintf("megasim: %s: stale handle %d (slot %d is at generation %d, handle carries %d): the node departed and its slot was recycled", op, id, Slot(id), e.nodes[uint32(id)&slotMask].gen, Gen(id))
}

// send transmits a message with the network model's UDP semantics:
// drop-tail congestion at the sender's shaped uplink, Bernoulli loss, crash
// silences. It executes on the sending node's shard and is the one body
// every route into the network shares — the typed NodeEnv.SendIDs and
// SendServe, and the generic Send, SendFrom and membership emissions
// through unpack. A message that survives is copied into a record (the
// destination shard's slab, or an outbox on the way there), and send
// reports that it was kept; p's list is not referenced once send returns,
// its boxed message only by the record. A send from a stale handle — node
// logic that outlived its slot's recycling — drops silently exactly like a
// send from a crashed node (it was never counted sent, so conservation
// holds), but panics under PanicOnStale.
func (e *Engine) send(sh *shard, from, to NodeID, p payload) (kept bool) {
	tslot := uint32(to) & slotMask
	if int32(to) < 0 || int(tslot) >= len(e.nodes) {
		panic(fmt.Sprintf("megasim: send: unknown node %d (slot %d outside the %d-slot arena)", to, tslot, len(e.nodes)))
	}
	fslot := uint32(from) & slotMask
	if int32(from) < 0 || int(fslot) >= len(e.nodes) {
		panic(fmt.Sprintf("megasim: send: unknown node %d (slot %d outside the %d-slot arena)", from, fslot, len(e.nodes)))
	}
	src := &e.nodes[fslot]
	if int(src.gen) != int(uint32(from)>>slotBits) {
		// Silent, like a crashed sender: the message is never counted sent,
		// so TotalStats' conservation identity (sent == received + random +
		// dead drops) stays exact. StaleDrops counts only *deliveries* to
		// recycled slots — those were counted sent and must balance.
		if e.cfg.PanicOnStale {
			panic(e.staleMsg("send", from))
		}
		return false
	}
	if !src.alive {
		return false
	}
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
	if e.cfg.Net.LossRate > 0 && sh.rng.Float64() < e.cfg.Net.LossRate {
		src.stats.RandomDrops++
		return false
	}
	at := depart + e.pairLatency(sh, from, to)
	d := int(tslot) % len(e.shards)
	if d == sh.id {
		sh.pushDelivery(at, from, to, int32(size), p)
		return true
	}
	sh.outboxOut++
	ob := &sh.outbox[d]
	//lint:pooled outbox capacity is reused across windows; mergeInbound resets it to [:0]
	ob.msgs = append(ob.msgs, xmsg{at: at, from: from, to: to})
	r := &ob.msgs[len(ob.msgs)-1].rec
	if r.fill(int32(size), p) {
		r.inl[0] = stream.PacketID(len(ob.ids))
		//lint:pooled the region's capacity is reused across windows, reset with the outbox
		ob.ids = append(ob.ids, p.ids...)
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
// releases the record afterwards. It executes on the destination node's
// shard; the sender's liveness flag is stable between barriers, so the
// cross-shard read is race-free. SHUFFLE messages are membership traffic:
// they go to the node's sampler (which may answer — the reply departs
// through the node's own shaped uplink), never to the protocol handler. A
// node without a sampler drops them silently, like any unknown datagram.
//
// A delivery addressed to a stale handle — the destination incarnation
// departed and its slot was recycled while the message was in flight —
// is counted on the shard (StaleDrops; panic under PanicOnStale): the
// new occupant never sees it. A stale *source* with a live destination
// dead-drops normally — the sender was live when it sent, so the message
// was counted sent, and its slot's recycling mid-flight changes nothing
// about the destination-side accounting. One exemption: a LEAVE from a
// dead-but-not-recycled source delivers — delivering the farewell after
// the sender is gone is the entire point of a graceful departure.
func (e *Engine) deliver(sh *shard, ev *event) {
	src, dst := &e.nodes[uint32(ev.from)&slotMask], &e.nodes[uint32(ev.to)&slotMask]
	if int(dst.gen) != int(uint32(ev.to)>>slotBits) {
		e.noteStale(sh, "deliver", ev.to)
		return
	}
	rec := &sh.msgs[ev.ref]
	k := rec.kind
	if int(src.gen) != int(uint32(ev.from)>>slotBits) || !dst.alive ||
		(!src.alive && k != wire.KindLeave) {
		// A LEAVE from a dead (but not recycled) source still delivers: a
		// graceful departure hands its farewells to the network and crashes
		// in the same barrier, and a datagram in flight is not recalled
		// when its sender dies. Every other kind dead-drops as before.
		dst.stats.DeadDrops++
		return
	}
	dst.stats.RecvMsgs[k]++
	dst.stats.RecvBytes[k] += uint64(rec.size)
	// rec is not used past this point: a handler that sends may grow the
	// slab under it. The payload's list stays readable either way.
	p := rec.payload(sh.ids.buf)
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
// uplink shaping, loss draw, and jitter come from the same streams as the
// node's own sends, and cross-shard deliveries fold through the regular
// barrier outboxes — so runs stay bit-identical for a fixed (seed,
// shards) pair.
func (e *Engine) SendFrom(from, to NodeID, msg wire.Message) {
	e.checkMutable("SendFrom")
	sh := e.shards[Slot(from)%len(e.shards)]
	e.sendMsg(sh, from, to, msg)
}

// pairLatency is the model's pair latency: the mean of the node bases,
// scaled by the ordered pair's fixed spread factor, plus per-message
// jitter drawn from the executing shard's stream. The sender a is always
// current (send gen-checks it), but b may be a stale handle — draining
// traffic to a recycled slot — whose base lives in the slot's prevBase
// side table; both bases respect the admit clamp, so the delivery time
// stays inside the lookahead bound either way. PairFactor hashes the
// full handles, so a stale pair's spread factor is deterministic too.
func (e *Engine) pairLatency(sh *shard, a, b NodeID) time.Duration {
	sb := &e.nodes[uint32(b)&slotMask]
	bb := sb.base
	if int(sb.gen) != int(uint32(b)>>slotBits) {
		bb = sb.prevBase
	}
	base := float64(e.nodes[uint32(a)&slotMask].base+bb) / 2
	if e.cfg.Net.PairSpread > 0 {
		base *= simnet.PairFactor(e.pairSalt, a, b, e.cfg.Net.PairSpread)
	}
	if e.cfg.Net.JitterFrac > 0 {
		base *= 1 + e.cfg.Net.JitterFrac*(2*sh.rng.Float64()-1)
	}
	if base < 0 {
		base = 0
	}
	return time.Duration(base)
}

// liveNode returns the node id names while that incarnation is alive, nil
// once it has crashed or departed: whether its timers and ticks still run.
func (e *Engine) liveNode(id NodeID) *nodeState {
	if s := Slot(id); s < len(e.nodes) && int(e.nodes[s].gen) == Gen(id) && e.nodes[s].alive {
		return &e.nodes[s]
	}
	return nil
}

// lookup resolves a node handle for an accessor, panicking with a named,
// actionable message when the handle cannot resolve: slot outside the
// arena (the id was never minted) or generation mismatch (the incarnation
// departed and its slot was recycled). op names the caller in the panic.
func (e *Engine) lookup(op string, id NodeID) *nodeState {
	slot := Slot(id)
	if int32(id) < 0 || slot >= len(e.nodes) {
		panic(fmt.Sprintf("megasim: %s: unknown node %d (slot %d outside the %d-slot arena)", op, id, slot, len(e.nodes)))
	}
	nd := &e.nodes[slot]
	if int(nd.gen) != Gen(id) {
		panic(e.staleMsg(op, id))
	}
	return nd
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
// crashed or been released, fn is dropped unexecuted and uncounted, as a
// cancelled timer is.
func (v *NodeEnv) After(d time.Duration, fn func()) func() { return v.sh.after(d, v.id, fn) }

// FlatTimers reports whether the flat route reaches the node's logic: the
// node has been added and its handler is a TimerHandler. Node logic that
// is not itself the registered handler (it sits behind a wrapper the
// engine delivers to) gets false; it arms its timers through After, sends
// through Send and receives through HandleMessage.
func (v *NodeEnv) FlatTimers() bool {
	slot := Slot(v.id)
	if slot >= len(v.eng.nodes) {
		return false
	}
	nd := &v.eng.nodes[slot]
	return int(nd.gen) == Gen(v.id) && nd.flat != nil
}

// AfterTimer schedules OnTimer(kind, arg) on the node's TimerHandler once
// after d, as one by-value event: no closure, no cancel function — the
// handler ignores the timers it no longer wants. Like an After timer, it
// dies with its node. Timer ids and sequence numbers are drawn as After
// draws them, so a run is the same event for event over either call.
func (v *NodeEnv) AfterTimer(d time.Duration, kind uint8, arg uint32) {
	v.sh.afterNode(d, v.id, kind, arg)
}
