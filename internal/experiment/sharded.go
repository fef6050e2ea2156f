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
//   - per-node RNG state is compact (megasim.NewRand) instead of the 5 KB
//     default source.
//
// Churn runs at engine barriers. A sustained process (cfg.ChurnProcess) is
// a deterministic Poisson timeline expanded before the run: joins admit a
// node at runtime with a Cyclon view bootstrapped from live descriptors,
// leaves crash one random live node, bursts reuse the catastrophic path.
// Lifetimes are recorded so results can score quality over the windows each
// node was actually present for (Result.LifetimeQualities).
func runBehind(cfg Config, seam *nodeSeam) (*Result, error) {
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
	d := deployment{
		cfg:    cfg,
		eng:    eng,
		seam:   seam,
		src:    src,
		pssCfg: pssCfg,
		end:    end,
		fold:   newStreamFold(cfg, end),
		peers:  make([]*core.Peer, cfg.Nodes),
		ids:    make([]wire.NodeID, cfg.Nodes),
		joined: make([]time.Duration, cfg.Nodes),
		riders: make([]bool, cfg.Nodes),
		// Setup node i has service-class ordinal i-1; runtime admissions
		// continue the count from there.
		nextOrdinal: cfg.Nodes - 1,
		pool:        make([]wire.NodeID, 0, cfg.Nodes),
	}
	if cfg.Membership == MembershipCyclon {
		d.states = make([]*pss.State, cfg.Nodes)
	}
	for i := 0; i < cfg.Nodes; i++ {
		id := wire.NodeID(i)
		var boot []wire.NodeID
		if d.states != nil {
			boot = bootstrapIDs(id, cfg.Nodes, pssCfg.ShuffleLen, bootRng)
		}
		rider := i > 0 && freeRider(cfg.FreeRiders, i-1)
		p, st, err := d.buildNode(id, boot, i == 0, rider)
		if err != nil {
			return nil, err
		}
		d.peers[i] = p
		d.ids[i] = id
		d.riders[i] = rider
		if d.states != nil {
			d.states[i] = st
		}
	}

	for _, p := range d.peers {
		p.Start()
	}

	// Churn bursts run at engine barriers: every shard is quiescent, so a
	// burst may crash nodes and stop their peers across all shards.
	churnRng := xrand.New(cfg.Seed + 7919)
	for _, ev := range cfg.Churn {
		ev := ev
		eng.AtBarrier(ev.At, func() { d.burst(ev, churnRng) })
	}

	// The sustained churn process: its deterministic timeline is expanded
	// up front (AtBarrier is setup-only), then each event runs at its own
	// engine barrier. The process covers the stream's duration — churn
	// while the content flows is what exercises runtime bootstrap; the
	// drain then measures how the survivors settle.
	if p := cfg.ChurnProcess; p != nil && !p.IsZero() {
		procRng := xrand.New(cfg.Seed + 8161)
		for _, tev := range p.Timeline(cfg.Seed, cfg.Layout.Duration()) {
			tev := tev
			switch tev.Op {
			case churn.OpJoin:
				eng.AtBarrier(tev.At, func() { d.admit(tev.At, procRng) })
			case churn.OpLeave:
				eng.AtBarrier(tev.At, func() { d.leave(tev.At, procRng) })
			case churn.OpGracefulLeave:
				eng.AtBarrier(tev.At, func() { d.gracefulLeave(tev.At, procRng) })
			case churn.OpBurst:
				eng.AtBarrier(tev.At, func() {
					d.burst(churn.Event{At: tev.At, Fraction: tev.Fraction}, procRng)
				})
			default:
				return nil, fmt.Errorf("experiment: unknown churn op %v", tev.Op)
			}
		}
	}

	// Introspection hooks: wall-clock sampling and progress snapshots run
	// on the supervisor between phases, never perturbing the run.
	if t := cfg.Telemetry; t != nil {
		if t.Clock != nil {
			eng.SetWallClock(t.Clock)
		}
		if t.SnapshotEvery > 0 {
			onSnap := t.OnSnapshot
			eng.SetSnapshot(t.SnapshotEvery, func(at time.Duration) {
				s := telemetry.Snapshot{
					AtSeconds: at.Seconds(),
					Live:      eng.Live(),
					Events:    eng.Fired(),
					Pending:   eng.Pending(),
				}
				d.snaps = append(d.snaps, s)
				if onSnap != nil {
					onSnap(s)
				}
			})
		}
	}

	if err := eng.Run(end); err != nil {
		return nil, err
	}
	if d.err != nil {
		return nil, d.err
	}
	res := d.collect()
	res.ShardLoads = eng.ShardLoads()
	res.TotalTraffic = eng.TotalStats()
	if d.states != nil {
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
	indeg := make([]int64, len(d.states))
	for _, st := range d.states {
		if st == nil || st.Stopped() {
			continue
		}
		for _, e := range st.View() {
			slot := megasim.Slot(e.ID)
			if slot < len(indeg) && d.states[slot] != nil && d.ids[slot] == e.ID {
				indeg[slot]++
			}
		}
	}
	var h telemetry.Hist
	for slot, st := range d.states {
		if st == nil || st.Stopped() {
			continue
		}
		h.Observe(indeg[slot])
	}
	return h
}

// deployment is the mutable state of one run. The per-node slices
// are indexed by arena slot and mirror the engine's slot recycling: a
// departed node's entries are nilled at its crash barrier and a runtime
// admission (which may reuse the slot under a new handle) overwrites
// them, so deployment memory is O(live nodes) alongside the engine's.
type deployment struct {
	cfg  Config
	eng  *megasim.Engine
	seam *nodeSeam // nil outside the route-twin tests
	// src is the stream, which node 0 publishes.
	src    *stream.Source
	pssCfg pss.Config
	end    time.Duration
	peers  []*core.Peer
	states []*pss.State    // nil under MembershipFull
	ids    []wire.NodeID   // full handle of each slot's live occupant
	joined []time.Duration // admission barrier time; 0 for setup nodes
	riders []bool          // service class of each slot's occupant (Config.FreeRiders)
	// nextOrdinal is the stable service-class ordinal the next runtime
	// admission consumes (freeRider); slot reuse never rewinds it.
	nextOrdinal int
	// pool is the scratch aliveVictims and liveBootstrapIDs fill; no result
	// outlives its barrier callback (churn.Pick and pss.NewState copy).
	// Never nil, so an empty bootstrap list still selects a Cyclon record.
	pool []wire.NodeID
	// fold scores every node as its lifetime closes; rows collects the
	// per-node detail of the same nodes in the same order (Result.Nodes) and
	// stays nil under StreamingMetrics.
	fold  *streamFold
	rows  []NodeResult
	snaps []telemetry.Snapshot // progress snapshots (Config.Telemetry)
	err   error                // first admission failure, surfaced after Run
}

// crash executes one ungraceful departure at barrier time at, the path
// bursts and sustained leaves share so crash semantics cannot diverge
// between churn shapes. The victim is silenced in the network and its
// protocol state and membership record stopped (the engine already ends a
// crashed node's shuffle schedule and dead-drops its membership traffic).
// Its lifetime is closed now — final, because a dead node's receiver and
// sent-byte counters never change again — and then the whole node is
// released: peer, membership record, and the engine arena slot, which
// re-enters service after its quarantine. Retaining rows changes nothing
// here, so a run recycles the same slots at the same barriers with and
// without StreamingMetrics.
func (d *deployment) crash(victim wire.NodeID, at time.Duration) {
	slot := megasim.Slot(victim)
	d.eng.Crash(victim)
	d.peers[slot].Stop()
	if d.states != nil {
		d.states[slot].Stop()
	}
	d.closeLifetime(victim, slot, at, false)
	d.peers[slot] = nil
	if d.states != nil {
		d.states[slot] = nil
	}
	d.eng.Release(victim)
}

// burst executes one churn event: victims are picked from the non-source
// nodes alive at burst time and depart ungracefully.
func (d *deployment) burst(ev churn.Event, rng *rand.Rand) {
	for _, victim := range churn.Pick(d.aliveVictims(), ev.Fraction, rng) {
		d.crash(victim, ev.At)
	}
}

// closeLifetime scores one node whose lifetime ends at leftAt — its crash
// barrier, or run end for survivors; either way its receiver and counters
// are final — and, unless the run retains no rows, captures its NodeResult.
func (d *deployment) closeLifetime(id wire.NodeID, slot int, leftAt time.Duration, survived bool) {
	p := d.peers[slot]
	recv := p.Receiver()
	stats := d.eng.NodeStats(id)
	d.fold.fold(d.joined[slot], leftAt, survived, d.riders[slot], recv, stats)
	if d.cfg.StreamingMetrics {
		return
	}
	d.rows = append(d.rows, NodeResult{
		ID:            id,
		Survived:      survived,
		JoinedAt:      d.joined[slot],
		LeftAt:        leftAt,
		FreeRider:     d.riders[slot],
		Quality:       metrics.Evaluate(recv, d.cfg.Layout),
		UploadKbps:    float64(stats.TotalSentBytes()) * 8 / d.end.Seconds() / 1000,
		BaseLatencyMS: float64(d.eng.BaseLatency(id)) / float64(time.Millisecond),
		Counters:      p.Counters(),
		Stats:         stats,
	})
}

// collect closes the survivors' lifetimes in ascending slot order
// (departed nodes were closed at their crash barriers) and assembles the
// Result: the fold's state, and the rows when the run retained them.
func (d *deployment) collect() *Result {
	if !d.cfg.StreamingMetrics {
		d.rows = slices.Grow(d.rows, d.eng.Added()-1-len(d.rows))
	}
	for slot := 1; slot < len(d.peers); slot++ {
		if d.peers[slot] != nil {
			d.closeLifetime(d.ids[slot], slot, d.end, true)
		}
	}
	return &Result{
		Config:         d.cfg,
		Duration:       d.end,
		Nodes:          d.rows,
		SourceCounters: d.peers[0].Counters(),
		SourceStats:    d.eng.NodeStats(0),
		Events:         d.eng.Fired(),
		Streaming:      &d.fold.res,
	}
}

// aliveVictims returns the non-source nodes currently alive — the victim
// pool of every churn shape (bursts and sustained leaves). Slots are
// scanned in ascending order, so the pool (and any rng.Intn pick from it)
// is deterministic.
func (d *deployment) aliveVictims() []wire.NodeID {
	eligible := d.pool[:0]
	for slot := 1; slot < len(d.peers); slot++ {
		if d.peers[slot] != nil && d.eng.Alive(d.ids[slot]) {
			eligible = append(eligible, d.ids[slot])
		}
	}
	d.pool = eligible
	return eligible
}

// buildNode constructs and registers one node on the engine — the single
// definition of a node's seeding and wiring, shared by the setup loop and
// runtime admission so the two paths cannot drift. The protocol stream is
// seeded Seed<<20 + id; a non-nil boot selects a Cyclon record (seeded
// with a distinct salt to decorrelate it from the protocol stream, and
// attached to the engine), nil boot a static SparseView; source makes the
// node the stream source; rider puts the node in the leeching service
// class (Config.FreeRiders).
func (d *deployment) buildNode(id wire.NodeID, boot []wire.NodeID, source, rider bool) (*core.Peer, *pss.State, error) {
	cfg := d.cfg
	rng := megasim.NewRand(cfg.Seed<<20 + int64(id))
	nodeEnv := d.eng.NodeEnv(id, rng)
	var env core.Env = nodeEnv
	if d.seam != nil {
		env = d.seam.env(nodeEnv)
	}
	var sampler member.Sampler
	var st *pss.State
	if boot != nil {
		var err error
		st, err = pss.NewState(id, d.pssCfg, cfg.Seed<<20+0x707373+int64(id), boot)
		if err != nil {
			return nil, nil, err
		}
		sampler = st
	} else {
		sampler = member.NewSparseView(id, cfg.Nodes, rng)
	}
	var p *core.Peer
	var err error
	if source {
		p, err = core.NewSourcePeer(env, cfg.Protocol, sampler, d.src)
	} else {
		proto := cfg.Protocol
		proto.Leech = rider
		p, err = core.NewPeer(env, proto, sampler, cfg.Layout)
	}
	if err != nil {
		return nil, nil, err
	}
	var handler megasim.Handler = p
	if d.seam != nil {
		handler = d.seam.handler(p)
	}
	if got := d.eng.AddNode(handler, nodeCap(cfg, megasim.Slot(id)), cfg.QueueBytes); got != id {
		return nil, nil, fmt.Errorf("experiment: node id drift: got %d, want %d", got, id)
	}
	if st != nil {
		d.eng.AttachSampler(id, st, d.pssCfg.Period)
	}
	return p, st, nil
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
	boot := d.liveBootstrapIDs(id, d.pssCfg.ShuffleLen, rng)
	rider := freeRider(d.cfg.FreeRiders, d.nextOrdinal)
	d.nextOrdinal++
	p, st, err := d.buildNode(id, boot, false, rider)
	if err != nil {
		d.err = fmt.Errorf("experiment: admitting node %d: %w", id, err)
		return
	}
	slot := megasim.Slot(id)
	if slot == len(d.peers) {
		d.peers = append(d.peers, nil)
		d.ids = append(d.ids, 0)
		d.joined = append(d.joined, 0)
		d.riders = append(d.riders, false)
		d.states = append(d.states, nil)
	}
	d.peers[slot] = p
	d.ids[slot] = id
	d.joined[slot] = at
	d.riders[slot] = rider
	d.states[slot] = st
	d.fold.res.Joined++
	p.Start()
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
	if d.states != nil {
		for _, em := range d.states[megasim.Slot(victim)].Goodbye() {
			d.eng.SendFrom(victim, em.To, em.Msg)
		}
	}
	d.crash(victim, at)
}

// liveBootstrapIDs samples up to k distinct live nodes (excluding self) to
// seed a joining node's view — the runtime analogue of bootstrapIDs, which
// can assume every id in [0, n) exists. Scanning the slots keeps the draw
// count deterministic regardless of how much of the population is dead.
func (d *deployment) liveBootstrapIDs(self wire.NodeID, k int, rng *rand.Rand) []wire.NodeID {
	alive := d.pool[:0]
	for slot := 0; slot < len(d.peers); slot++ {
		if d.peers[slot] == nil {
			continue
		}
		if id := d.ids[slot]; id != self && d.eng.Alive(id) {
			alive = append(alive, id)
		}
	}
	d.pool = alive
	if k > len(alive) {
		k = len(alive)
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(alive)-i)
		alive[i], alive[j] = alive[j], alive[i]
	}
	return alive[:k]
}
