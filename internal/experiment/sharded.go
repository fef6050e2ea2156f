package experiment

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"gossipstream/internal/churn"
	"gossipstream/internal/core"
	"gossipstream/internal/megasim"
	"gossipstream/internal/member"
	"gossipstream/internal/metrics"
	"gossipstream/internal/pss"
	"gossipstream/internal/slab"
	"gossipstream/internal/stream"
	"gossipstream/internal/telemetry"
	"gossipstream/internal/wire"
	"gossipstream/internal/xrand"
)

// nodeSeam stands between every peer of a deployment and the engine: env
// returns the environment a peer is built on in place of the engine's, and
// handler what the engine delivers to in place of the peer. The route-twin
// tests use it to run whole deployments — churn, admission and scoring
// included — behind wrappers that know only the generic Send and
// HandleMessage.
type nodeSeam struct {
	env     func(*megasim.NodeEnv) core.Env
	handler func(*core.Peer) megasim.Handler
}

// runBehind executes one validated deployment on the engine, with every
// node behind seam (nil, as Run passes: none). Every scenario — baseline,
// burst churn, heterogeneous caps, full-view or Cyclon membership, a
// sustained churn process — is built the same way:
//
//   - internal/megasim executes the events, spread over cfg.Shards shards
//     (one shard runs inline on the calling goroutine);
//   - under MembershipFull, member.SparseView samples the static
//     population without a per-node O(n) membership array;
//   - under MembershipCyclon, compact pss.State records are attached to the
//     engine (megasim.AttachSampler), which ticks them and routes their
//     shuffle traffic;
//   - per-node RNG state is compact (an xrand source, megasim.NewRand's)
//     instead of the 5 KB default source;
//   - every node's state is held by value: its peer, RNG and sampler in
//     its shard's chunks (shardNodes), the peer's variable-size state in
//     its shard's core.Table, its environment in the engine's table. A
//     run allocates per shard as those reach their peaks, not per node,
//     and a node admitted into a departed node's slot rebuilds that
//     slot's state in place.
//
// Churn runs at engine barriers, from one schedule built before the run
// (Config.churnTimeline): the catastrophic bursts of cfg.Churn, then the
// deterministic Poisson timeline of a sustained process (cfg.ChurnProcess).
// Bursts crash a fraction of the live nodes, joins admit a node at runtime
// with a Cyclon view bootstrapped from live descriptors, leaves crash one
// random live node.
// Lifetimes are recorded so results can score quality over the windows each
// node was actually present for (Result.LifetimeQualities).
func runBehind(cfg Config, seam *nodeSeam) (*Result, error) {
	d, err := newDeployment(cfg, seam)
	if err != nil {
		return nil, err
	}
	if err := d.schedule(); err != nil {
		return nil, err
	}
	return d.run()
}

// newDeployment builds the engine and the setup population, with every
// peer started, and nothing scheduled at barriers yet.
func newDeployment(cfg Config, seam *nodeSeam) (*deployment, error) {
	// Normalize before anything records cfg: Result.Config must describe
	// the engine that actually ran.
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Shards > cfg.Nodes {
		cfg.Shards = cfg.Nodes
	}
	eng, err := megasim.New(megasim.Config{Net: cfg.Net, Shards: cfg.Shards, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}

	src, err := stream.NewSource(cfg.Layout, cfg.Seed+1)
	if err != nil {
		return nil, err
	}

	pssCfg := cfg.effectivePSS()
	bootRng := xrand.New(cfg.Seed + 4049)

	end := cfg.Layout.Duration() + cfg.Drain
	d := &deployment{
		cfg:    cfg,
		eng:    eng,
		seam:   seam,
		src:    src,
		pssCfg: pssCfg,
		cyclon: cfg.Membership == MembershipCyclon,
		end:    end,
		fold:   newStreamFold(cfg, end),
		shards: make([]shardNodes, cfg.Shards),
		nodes:  make([]*node, cfg.Nodes),
		// Setup node i has service-class ordinal i-1; runtime admissions
		// continue the count from there.
		nextOrdinal: cfg.Nodes - 1,
		pool:        make([]wire.NodeID, 0, cfg.Nodes),
	}
	for i := range d.shards {
		d.shards[i] = newShardNodes()
	}
	for i := 0; i < cfg.Nodes; i++ {
		id := wire.NodeID(i)
		var boot []wire.NodeID
		if d.cyclon {
			boot = bootstrapIDs(d.pool, id, cfg.Nodes, pssCfg.ShuffleLen, bootRng)
		}
		rider := i > 0 && freeRider(cfg.FreeRiders, i-1)
		n, err := d.buildNode(id, 0, boot, i == 0, rider)
		if err != nil {
			return nil, err
		}
		d.nodes[i] = n
	}

	for _, n := range d.nodes {
		n.peer.Start()
	}
	return d, nil
}

// churnTimeline is the run's one churn schedule, in registration order:
// the catastrophic bursts of Churn as OpBurst events, then the sustained
// process's timeline over the stream's duration — churn while the content
// flows is what exercises runtime bootstrap; the drain then measures how
// the survivors settle. Registering bursts first keeps a burst ahead of a
// process event at the same instant (AtBarrier runs ties in registration
// order).
func (c Config) churnTimeline() []churn.TimelineEvent {
	out := make([]churn.TimelineEvent, 0, len(c.Churn))
	for _, ev := range c.Churn {
		out = append(out, churn.TimelineEvent{At: ev.At, Op: churn.OpBurst, Fraction: ev.Fraction})
	}
	if p := c.ChurnProcess; p != nil && !p.IsZero() {
		out = append(out, p.Timeline(c.Seed, c.Layout.Duration())...)
	}
	return out
}

// schedule registers the run's telemetry and churn at engine barriers.
func (d *deployment) schedule() error {
	cfg, eng := d.cfg, d.eng
	// Introspection: the wall clock is sampled at phase edges, and a
	// progress snapshot is an observing barrier at each multiple of
	// SnapshotEvery, so it lands on its exact instant at any shard count.
	// Registered ahead of the churn, a snapshot at a churn instant sees
	// the state before it.
	if t := cfg.Telemetry; t != nil {
		if t.Clock != nil {
			eng.SetWallClock(t.Clock)
		}
		for at := t.SnapshotEvery; t.SnapshotEvery > 0 && at <= d.end; at += t.SnapshotEvery {
			eng.AtBarrier(at, func() { d.snapshot(at, t.OnSnapshot) })
		}
	}

	// Churn runs at engine barriers: every shard is quiescent, so an event
	// may admit nodes and crash them across all shards. The schedule is
	// expanded up front (AtBarrier is setup-only), and bursts and process
	// events keep their own victim streams.
	burstRng := xrand.New(cfg.Seed + 7919)
	procRng := xrand.New(cfg.Seed + 8161)
	for _, tev := range cfg.churnTimeline() {
		var fn func()
		switch tev.Op {
		case churn.OpBurst:
			fn = func() { d.burst(tev.At, tev.Fraction, burstRng) }
		case churn.OpJoin:
			fn = func() { d.admit(tev.At, procRng) }
		case churn.OpLeave:
			fn = func() { d.leave(tev.At, procRng) }
		case churn.OpGracefulLeave:
			fn = func() { d.gracefulLeave(tev.At, procRng) }
		default:
			return fmt.Errorf("experiment: unknown churn op %v", tev.Op)
		}
		eng.AtBarrier(tev.At, fn)
	}
	return nil
}

// snapshot records the run's progress at barrier time at and hands it to
// onSnap, if set.
func (d *deployment) snapshot(at time.Duration, onSnap func(telemetry.Snapshot)) {
	s := telemetry.Snapshot{
		AtSeconds: at.Seconds(),
		Live:      d.eng.Live(),
		Events:    d.eng.Fired(),
		Pending:   d.eng.Pending(),
	}
	d.snaps = append(d.snaps, s)
	if onSnap != nil {
		onSnap(s)
	}
}

// run executes the deployment to its end and assembles the Result.
func (d *deployment) run() (*Result, error) {
	eng := d.eng
	if err := eng.Run(d.end); err != nil {
		return nil, err
	}
	if d.err != nil {
		return nil, d.err
	}
	res := d.collect()
	res.ShardLoads = eng.ShardLoads()
	res.TotalTraffic = eng.TotalStats()
	if d.cyclon {
		res.ViewInDegree = d.inDegreeHist()
	}
	res.Wall = eng.WallProfile()
	res.Snapshots = d.snaps
	return res, nil
}

// inDegreeHist measures the final Cyclon overlay: for every node still
// live at run end, the number of live views holding its descriptor. Runs
// once after the engine stops (all shards quiescent), iterating arena
// slots in ascending order, so the histogram is deterministic. A stale
// descriptor — same slot, older generation — never counts toward the
// slot's current occupant.
func (d *deployment) inDegreeHist() telemetry.Hist {
	indeg := make([]int64, len(d.nodes))
	for _, n := range d.nodes {
		if n == nil {
			continue
		}
		for i := range n.state.ViewLen() {
			id := n.state.ViewAt(i).ID
			slot := megasim.Slot(id)
			if slot < len(indeg) && d.nodes[slot] != nil && d.nodes[slot].id == id {
				indeg[slot]++
			}
		}
	}
	var h telemetry.Hist
	for slot, n := range d.nodes {
		if n != nil {
			h.Observe(indeg[slot])
		}
	}
	return h
}

// node is one node's state, held by value in its shard's chunks: its
// handle, admission time and service class, its peer, its protocol random
// stream (an xrand source behind a rand.Rand, megasim.NewRand's stream)
// and its sampler — the static view under MembershipFull, the Cyclon
// record under MembershipCyclon. The record belongs to an arena slot: a
// node admitted into a departed node's slot rebuilds it in place
// (buildNode).
type node struct {
	id     wire.NodeID   // full handle of the slot's occupant
	joined time.Duration // admission barrier time; 0 for setup nodes
	rider  bool          // leeching service class (Config.FreeRiders)
	peer   core.Peer
	src    xrand.SplitMix64
	rng    rand.Rand
	view   member.SparseView
	// state is the node's Cyclon record, held by value in its shard's
	// state chunks, which a full-view run does not have; nil there.
	state *pss.State
}

// The chunk sizes of a shard's node store, as shifts: 32 node records
// (about 26 KB) or Cyclon records a chunk, and 4,096 view entries (32 KB)
// or ids (16 KB) of the records' backings.
const (
	nodeShift    = 5
	backingShift = 12
)

// shardNodes is one engine shard's share of the deployment: the table its
// peers keep their variable-size state in, its node records and Cyclon
// records in chunks that never move, indexed by the node's index on the
// shard (megasim.Engine.ShardOf), and the pools a fresh Cyclon record's
// backings are lent from. A record and its backings stay with their index
// for the run.
type shardNodes struct {
	tab     *core.Table
	nodes   slab.Table[node]
	states  slab.Table[pss.State]
	entries slab.Pool[wire.ShuffleEntry]
	viewIDs slab.Pool[wire.NodeID]
}

// newShardNodes returns an empty share.
func newShardNodes() shardNodes {
	return shardNodes{
		tab:     core.NewTable(),
		nodes:   slab.NewTable[node](nodeShift),
		states:  slab.NewTable[pss.State](nodeShift),
		entries: slab.NewPool[wire.ShuffleEntry](backingShift),
		viewIDs: slab.NewPool[wire.NodeID](backingShift),
	}
}

// at returns the node record at index i.
func (s *shardNodes) at(i int) *node {
	s.nodes.Extend(i + 1)
	return s.nodes.At(i)
}

// stateAt returns the Cyclon record at index i; a record new to the share
// gets its backings for cfg from the share's pools.
func (s *shardNodes) stateAt(i int, cfg pss.Config) *pss.State {
	if i < s.states.Len() {
		return s.states.At(i)
	}
	s.states.Extend(i + 1)
	st := s.states.At(i)
	entries, ids := cfg.Backings()
	_, e := s.entries.Get(entries)
	_, v := s.viewIDs.Get(ids)
	st.Lend(cfg, e, v)
	return st
}

// deployment is the mutable state of one run. Its one slot-indexed
// slice, nodes, mirrors the engine's slot recycling: a departed node's
// entry is nilled at its crash barrier and a runtime admission (which may
// reuse the slot under a new handle) sets it again, so deployment memory
// is O(live nodes) alongside the engine's.
type deployment struct {
	cfg  Config
	eng  *megasim.Engine
	seam *nodeSeam // nil outside the route-twin tests
	// src is the stream, which node 0 publishes.
	src    *stream.Source
	pssCfg pss.Config
	cyclon bool // MembershipCyclon: nodes sample through their state
	end    time.Duration
	// shards holds every node's state, by engine shard; nodes points at
	// each slot's record while its occupant is live, nil once it crashed —
	// the deployment's one liveness test.
	shards []shardNodes
	nodes  []*node
	// nextOrdinal is the stable service-class ordinal the next runtime
	// admission consumes (freeRider); slot reuse never rewinds it.
	nextOrdinal int
	// pool is the scratch bootstrapIDs and liveIDs fill; no result
	// outlives the node it is drawn for or its barrier callback
	// (churn.Pick and pss.State.Reset copy). Never nil, so an empty
	// bootstrap list still selects a Cyclon record.
	pool []wire.NodeID
	// fold scores every node as its lifetime closes; rows collects the
	// per-node detail of the same nodes in the same order (Result.Nodes) and
	// stays nil under StreamingMetrics.
	fold  *streamFold
	rows  []NodeResult
	lags  []time.Duration      // the rows' lag backing not yet carved (lagRow)
	snaps []telemetry.Snapshot // progress snapshots (Config.Telemetry)
	err   error                // first admission failure, surfaced after Run
}

// crash executes one ungraceful departure at barrier time at, the path
// bursts and sustained leaves share so crash semantics cannot diverge
// between churn shapes. The engine silences the victim, ends its shuffle
// schedule, dead-drops its traffic and queues its arena slot, which the
// next admission reuses; the victim's protocol state and membership
// record are stopped. Its lifetime is closed now — final,
// because a dead node's receiver and counters never change again, and the
// engine keeps the counters until the slot is reused — and its record
// stays in place for the slot's next occupant. Retaining rows changes
// nothing here, so a run recycles the same slots at the same barriers with
// and without StreamingMetrics.
func (d *deployment) crash(victim wire.NodeID, at time.Duration) {
	slot := megasim.Slot(victim)
	n := d.nodes[slot]
	d.eng.Crash(victim)
	n.peer.Stop()
	if d.cyclon {
		n.state.Stop()
	}
	d.closeLifetime(n, at, false)
	d.nodes[slot] = nil
}

// burst runs inside a burst barrier: fraction of the non-source nodes
// alive at time at are picked and depart ungracefully.
func (d *deployment) burst(at time.Duration, fraction float64, rng *rand.Rand) {
	for _, victim := range churn.Pick(d.aliveVictims(), fraction, rng) {
		d.crash(victim, at)
	}
}

// closeLifetime scores one node whose lifetime ends at leftAt — its crash
// barrier, or run end for survivors; either way its receiver and counters
// are final — and, unless the run retains no rows, captures its NodeResult.
func (d *deployment) closeLifetime(n *node, leftAt time.Duration, survived bool) {
	p := &n.peer
	recv := p.Receiver()
	stats := d.eng.NodeStats(n.id)
	d.fold.fold(n.joined, leftAt, survived, n.rider, recv, stats)
	if d.cfg.StreamingMetrics {
		return
	}
	d.rows = append(d.rows, NodeResult{
		ID:            n.id,
		Survived:      survived,
		JoinedAt:      n.joined,
		LeftAt:        leftAt,
		FreeRider:     n.rider,
		Quality:       metrics.EvaluateInto(d.lagRow(), recv, d.cfg.Layout),
		UploadKbps:    float64(stats.TotalSentBytes()) * 8 / d.end.Seconds() / 1000,
		BaseLatencyMS: float64(d.eng.BaseLatency(n.id)) / float64(time.Millisecond),
		Counters:      p.Counters(),
		Stats:         stats,
	})
}

// lagRow carves one retained row's window lags from the run's backing.
// A backing holds a row for every node added so far and not yet scored:
// one allocation covers the setup population, and one more each batch of
// admissions after it runs out.
func (d *deployment) lagRow() []time.Duration {
	w := d.cfg.Layout.Windows
	if len(d.lags) < w {
		d.lags = make([]time.Duration, max(d.eng.Added()-1-len(d.rows), 1)*w)
	}
	row := d.lags[:w:w]
	d.lags = d.lags[w:]
	return row
}

// collect closes the survivors' lifetimes in ascending slot order
// (departed nodes were closed at their crash barriers) and assembles the
// Result: the fold's state, and the rows when the run retained them.
func (d *deployment) collect() *Result {
	if !d.cfg.StreamingMetrics {
		d.rows = slices.Grow(d.rows, d.eng.Added()-1-len(d.rows))
	}
	for _, n := range d.nodes[1:] {
		if n != nil {
			d.closeLifetime(n, d.end, true)
		}
	}
	return &Result{
		Config:         d.cfg,
		Duration:       d.end,
		Nodes:          d.rows,
		SourceCounters: d.nodes[0].peer.Counters(),
		SourceStats:    d.eng.NodeStats(0),
		Events:         d.eng.Fired(),
		Streaming:      &d.fold.res,
	}
}

// liveIDs lists the live nodes' ids in ascending slot order, so the list
// (and any rng.Intn pick from it) is deterministic. Its head is the
// source, in slot 0 and always live.
func (d *deployment) liveIDs() []wire.NodeID {
	live := d.pool[:0]
	for _, n := range d.nodes {
		if n != nil {
			live = append(live, n.id)
		}
	}
	d.pool = live
	return live
}

// aliveVictims returns the non-source nodes currently alive — the victim
// pool of every churn shape (bursts and sustained leaves).
func (d *deployment) aliveVictims() []wire.NodeID { return d.liveIDs()[1:] }

// buildNode constructs and registers one node on the engine — the single
// definition of a node's seeding and wiring, shared by the setup loop and
// runtime admission so the two paths cannot drift. The node's record is
// its slot's, rebuilt in place: a recycled slot's previous occupant, long
// stopped and folded, is reset (its peer keeps its table's blocks, its
// Cyclon record its capacity), so admitting a node allocates nothing. The
// protocol stream is seeded Seed<<20 + id, as megasim.NewRand seeds it; a
// non-nil boot selects a Cyclon record (seeded with a distinct salt to
// decorrelate it from the protocol stream, and attached to the engine),
// nil boot a static SparseView; source makes the node the stream source;
// rider puts the node in the leeching service class (Config.FreeRiders);
// joined is its admission time (0 at setup).
func (d *deployment) buildNode(id wire.NodeID, joined time.Duration, boot []wire.NodeID, source, rider bool) (*node, error) {
	cfg := d.cfg
	shard, index := d.eng.ShardOf(id)
	sh := &d.shards[shard]
	n := sh.at(index)
	n.id, n.joined, n.rider = id, joined, rider
	n.src = xrand.Seeded(cfg.Seed<<20 + int64(id))
	n.rng = *rand.New(&n.src)
	nodeEnv := d.eng.NodeEnv(id, &n.rng)
	var env core.Env = nodeEnv
	if d.seam != nil {
		env = d.seam.env(nodeEnv)
	}
	var sampler member.Sampler
	if boot != nil {
		n.state = sh.stateAt(index, d.pssCfg)
		if err := n.state.Reset(id, d.pssCfg, cfg.Seed<<20+0x707373+int64(id), boot); err != nil {
			return nil, err
		}
		sampler = n.state
	} else {
		n.view = member.MakeSparseView(id, cfg.Nodes, &n.rng)
		sampler = &n.view
	}
	var err error
	if source {
		err = n.peer.ResetSource(sh.tab, env, cfg.Protocol, sampler, d.src)
	} else {
		proto := cfg.Protocol
		proto.Leech = rider
		err = n.peer.Reset(sh.tab, env, proto, sampler, cfg.Layout)
	}
	if err != nil {
		return nil, err
	}
	var handler megasim.Handler = &n.peer
	if d.seam != nil {
		handler = d.seam.handler(&n.peer)
	}
	if got := d.eng.AddNode(handler, nodeCap(cfg, megasim.Slot(id)), cfg.QueueBytes); got != id {
		return nil, fmt.Errorf("experiment: node id drift: got %d, want %d", got, id)
	}
	if boot != nil {
		d.eng.AttachSampler(id, n.state, d.pssCfg.Period)
	}
	return n, nil
}

// admit runs inside a join barrier: it registers one new peer — on the
// oldest recyclable arena slot when the engine has one, a fresh slot
// otherwise — whose Cyclon view is bootstrapped from descriptors of
// currently live nodes, attaches its membership record, and starts its
// protocol clock. PeekNextID names the handle before construction (node
// RNG streams are keyed by it), and the engine's recycling order is
// deterministic, so replays admit identical nodes onto identical slots.
func (d *deployment) admit(at time.Duration, rng *rand.Rand) {
	if d.err != nil {
		return
	}
	id := d.eng.PeekNextID()
	boot := d.liveBootstrapIDs(d.pssCfg.ShuffleLen, rng)
	rider := freeRider(d.cfg.FreeRiders, d.nextOrdinal)
	d.nextOrdinal++
	n, err := d.buildNode(id, at, boot, false, rider)
	if err != nil {
		d.err = fmt.Errorf("experiment: admitting node %d: %w", id, err)
		return
	}
	slot := megasim.Slot(id)
	if slot == len(d.nodes) {
		d.nodes = append(d.nodes, nil)
	}
	d.nodes[slot] = n
	d.fold.res.Joined++
	n.peer.Start()
}

// leave runs inside a leave barrier: one uniformly random live non-source
// node departs ungracefully — the crash path, exactly like a burst victim.
// With nobody left to remove, the event is a no-op.
func (d *deployment) leave(at time.Duration, rng *rand.Rand) {
	eligible := d.aliveVictims()
	if len(eligible) == 0 {
		return
	}
	d.crash(eligible[rng.Intn(len(eligible))], at)
}

// gracefulLeave runs inside a graceful-departure barrier: one uniformly
// random live non-source node announces its exit — its membership record
// emits a LEAVE to every peer in its view, sent from the departing node
// through its own shaped uplink — and then crashes. The victim draw is
// identical to leave's (same pool scan, same single rng.Intn), and the
// timeline keeps the leave salt, so a graceful run and a crash-leave run
// at the same seed remove the same nodes at the same instants: comparing
// the two isolates the cost of detection lag from unavoidable loss.
func (d *deployment) gracefulLeave(at time.Duration, rng *rand.Rand) {
	eligible := d.aliveVictims()
	if len(eligible) == 0 {
		return
	}
	victim := eligible[rng.Intn(len(eligible))]
	if d.cyclon {
		for _, em := range d.nodes[megasim.Slot(victim)].state.Goodbye() {
			d.eng.SendFrom(victim, em.To, em.Msg)
		}
	}
	d.crash(victim, at)
}

// liveBootstrapIDs samples up to k distinct live nodes to seed a joining
// node's view — the runtime analogue of bootstrapIDs, which can assume
// every id in [0, n) exists. The node being admitted is not live yet, so
// it is never among them. Scanning the slots keeps the draw count
// deterministic regardless of how much of the population is dead.
func (d *deployment) liveBootstrapIDs(k int, rng *rand.Rand) []wire.NodeID {
	alive := d.liveIDs()
	if k > len(alive) {
		k = len(alive)
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(alive)-i)
		alive[i], alive[j] = alive[j], alive[i]
	}
	return alive[:k]
}
