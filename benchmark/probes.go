package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"

	gs "gossipstream"
	"gossipstream/internal/core"
	"gossipstream/internal/fec"
	"gossipstream/internal/gf256"
	"gossipstream/internal/megasim"
	"gossipstream/internal/member"
	"gossipstream/internal/pss"
	"gossipstream/internal/shaping"
	"gossipstream/internal/stream"
	"gossipstream/internal/telemetry"
	"gossipstream/internal/wire"
)

// Probes put a number on one layer in isolation, through its public API.
// None is gated; they tell a reader which layer an end-to-end change came
// from. Each is sized to a few hundred milliseconds.

// probeBudget is how long a timed probe loops.
const probeBudget = 150 * time.Millisecond

// gcCPUSeconds returns the CPU time the collector has used so far, as the
// runtime estimates it (updated when a cycle ends).
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// timeOp calls op(i) with i = 0, 1, 2, … for probeBudget and returns mean
// nanoseconds and mean heap allocations per call. batch calls go between two
// looks at the clock, so the clock costs nothing measurable.
func timeOp(batch int, op func(i int)) (ns, allocs float64) {
	op(0) // first-call initialisation is not the steady state
	m0 := mallocs()
	start := time.Now()
	n := 0
	for time.Since(start) < probeBudget {
		for j := 0; j < batch; j++ {
			op(n)
			n++
		}
	}
	elapsed := time.Since(start)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(mallocs()-m0) / float64(n)
}

// allocsPer returns the mean heap allocations of n calls of op.
func allocsPer(n int, op func(i int)) float64 {
	m0 := mallocs()
	for i := 0; i < n; i++ {
		op(i)
	}
	return float64(mallocs()-m0) / float64(n)
}

// stubEnv is a core.Env that goes nowhere: Send consumes the message the way
// the engine's last consumer does, After keeps the callback for the probe to
// fire by hand.
type stubEnv struct {
	rng    *rand.Rand
	timers []func()
}

func (e *stubEnv) ID() wire.NodeID    { return 1 }
func (e *stubEnv) Now() time.Duration { return 0 }
func (e *stubEnv) Rand() *rand.Rand   { return e.rng }
func (e *stubEnv) Send(_ wire.NodeID, msg wire.Message) {
	if s, ok := msg.(wire.Serve); ok {
		wire.RecycleServe(s)
	}
}
func (e *stubEnv) After(_ time.Duration, fn func()) func() {
	e.timers = append(e.timers, fn)
	return func() {}
}

// idsPerMessage is the PROPOSE/REQUEST size the probes use: what a node
// learns in one 200 ms round of the paper's 600 kbps stream (≈12 packets).
const idsPerMessage = 12

// probeCore counts the heap allocations of core's four handlers on a stub
// Env: a PROPOSE of fresh ids (request state, REQUEST, retransmission timer),
// a SERVE of one new packet, a REQUEST for held packets (pooled SERVE
// batches), and a gossip round with ids to propose.
func probeCore(m metricSet, seed int64) error {
	layout := gs.DefaultLayout(20)
	src, err := stream.NewSource(layout, seed+1)
	if err != nil {
		return err
	}
	pkts := src.PacketsUntil(layout.Duration())
	env := &stubEnv{rng: megasim.NewRand(seed)}
	p, err := core.NewPeer(env, gs.DefaultProtocol(), member.NewSparseView(1, 2000, env.rng), layout)
	if err != nil {
		return err
	}
	p.Start()
	rounds := len(pkts) / idsPerMessage
	ids := func(i int) []stream.PacketID {
		out := make([]stream.PacketID, idsPerMessage)
		for j := range out {
			out[j] = pkts[i*idsPerMessage+j].ID
		}
		return out
	}
	proposes := make([]wire.Message, rounds)
	requests := make([]wire.Message, rounds)
	for i := range proposes {
		proposes[i] = wire.Propose{IDs: ids(i)}
		requests[i] = wire.Request{IDs: ids(i)}
	}
	serves := make([]wire.Message, len(pkts))
	for i, pkt := range pkts {
		serves[i] = wire.Serve{Packets: []*stream.Packet{pkt}}
	}

	m["core.propose_allocs"] = allocsPer(rounds, func(i int) { p.HandleMessage(2, proposes[i]) })
	// Rounds interleave with the serves that give them something to propose;
	// only the round itself is counted.
	tick := env.timers[0]
	env.timers = nil
	var roundAllocs, serveAllocs uint64
	for i := 0; i < rounds; i++ {
		m0 := mallocs()
		for j := 0; j < idsPerMessage; j++ {
			p.HandleMessage(2, serves[i*idsPerMessage+j])
		}
		m1 := mallocs()
		tick()
		roundAllocs += mallocs() - m1
		serveAllocs += m1 - m0
		tick = env.timers[len(env.timers)-1]
		env.timers = env.timers[:0]
	}
	m["core.serve_allocs"] = float64(serveAllocs) / float64(rounds*idsPerMessage)
	m["core.round_allocs"] = float64(roundAllocs) / float64(rounds)
	m["core.request_allocs"] = allocsPer(rounds, func(i int) { p.HandleMessage(2, requests[i]) })
	if c := p.Counters(); c.RequestsSent != rounds || c.ServesSent != rounds*idsPerMessage || c.ProposesSent == 0 {
		return fmt.Errorf("core probe did not exercise the handlers: %+v", c)
	}
	return nil
}

// nullHandler ignores deliveries.
type nullHandler struct{}

func (nullHandler) HandleMessage(wire.NodeID, wire.Message) {}

// forwarder passes every delivery on to the next node.
type forwarder struct {
	env  *megasim.NodeEnv
	next wire.NodeID
}

func (f *forwarder) HandleMessage(wire.NodeID, wire.Message) { f.env.Send(f.next, wire.FeedMe{}) }

// engineCost is the host cost per event of one probe engine run.
type engineCost struct {
	nsPerEvent, allocsPerEvent float64
	windows                    uint64
	wall                       time.Duration
}

func runEngine(eng *megasim.Engine, until time.Duration) (engineCost, error) {
	m0 := mallocs()
	start := time.Now()
	if err := eng.Run(until); err != nil {
		return engineCost{}, err
	}
	wall := time.Since(start)
	allocs := mallocs() - m0
	events := eng.Fired()
	if events == 0 {
		return engineCost{}, fmt.Errorf("engine probe fired no event")
	}
	return engineCost{
		nsPerEvent:     float64(wall.Nanoseconds()) / float64(events),
		allocsPerEvent: float64(allocs) / float64(events),
		windows:        eng.ShardLoads()[0].Windows,
		wall:           wall,
	}, nil
}

// probeMegasim runs the public engine under null handlers: hold (2000 nodes
// each re-arming NodeEnv.After: scheduler, dispatch and the escape of the
// pushed event), pingpong (handlers forwarding a small message via Send:
// shaper, loss and latency draws, deliver) on one shard and on two, and empty
// windows (two shards, one sparse timer chain: one barrier round trip per
// window).
func probeMegasim(m metricSet, seed int64) error {
	const nodes, events = 2000, 400_000
	base := gs.DefaultExperiment()
	newEngine := func(shards int) (*megasim.Engine, error) {
		return megasim.New(megasim.Config{Net: base.Net, Shards: shards, Seed: seed})
	}

	// hold: every node fires once per millisecond of virtual time.
	eng, err := newEngine(1)
	if err != nil {
		return err
	}
	for i := 0; i < nodes; i++ {
		id := eng.AddNode(nullHandler{}, base.UploadCapBps, base.QueueBytes)
		env := eng.NodeEnv(id, megasim.NewRand(seed<<20+int64(id)))
		var rearm func()
		rearm = func() { env.After(time.Millisecond, rearm) }
		env.After(time.Duration(env.Rand().Int63n(int64(time.Millisecond))), rearm)
	}
	hold, err := runEngine(eng, time.Duration(events/nodes)*time.Millisecond)
	if err != nil {
		return err
	}
	m["megasim.hold_ns_per_event"] = hold.nsPerEvent
	m["megasim.hold_allocs_per_event"] = hold.allocsPerEvent

	// pingpong: one token per node, forwarded to the next node on every
	// delivery; with round-robin placement every hop crosses shards when
	// there are two. Mean hop latency is ≈45 ms, ambient loss thins the
	// tokens slowly.
	pingpong := func(shards int) (engineCost, error) {
		eng, err := newEngine(shards)
		if err != nil {
			return engineCost{}, err
		}
		envs := make([]*megasim.NodeEnv, nodes)
		for i := range envs {
			f := &forwarder{next: wire.NodeID((i + 1) % nodes)}
			id := eng.AddNode(f, base.UploadCapBps, base.QueueBytes)
			f.env = eng.NodeEnv(id, megasim.NewRand(seed<<20+int64(id)))
			envs[i] = f.env
		}
		for _, env := range envs {
			env.Send(wire.NodeID((int(env.ID())+1)%nodes), wire.FeedMe{})
		}
		return runEngine(eng, time.Duration(events/nodes)*45*time.Millisecond)
	}
	pp1, err := pingpong(1)
	if err != nil {
		return err
	}
	pp2, err := pingpong(2)
	if err != nil {
		return err
	}
	m["megasim.pingpong_ns_per_event"] = pp1.nsPerEvent
	m["megasim.pingpong_allocs_per_event"] = pp1.allocsPerEvent
	m["megasim.pingpong2_ns_per_event"] = pp2.nsPerEvent

	// empty windows: a single timer chain far sparser than the lookahead, so
	// every conservative window holds one event and costs one run phase and
	// one merge phase across both shards.
	eng, err = newEngine(2)
	if err != nil {
		return err
	}
	var chain *megasim.NodeEnv
	for i := 0; i < 2; i++ {
		id := eng.AddNode(nullHandler{}, base.UploadCapBps, base.QueueBytes)
		if i == 0 {
			chain = eng.NodeEnv(id, megasim.NewRand(seed))
		}
	}
	var rearm func()
	rearm = func() { chain.After(time.Second, rearm) }
	chain.After(time.Second, rearm)
	empty, err := runEngine(eng, 20_000*time.Second)
	if err != nil {
		return err
	}
	m["megasim.empty_window_ns"] = float64(empty.wall.Nanoseconds()) / float64(empty.windows)
	return nil
}

// probeWire times the SERVE pool path — SplitServeInto plus RecycleServe of a
// typical requested batch — and the rt codec on one SERVE datagram.
func probeWire(m metricSet, seed int64) error {
	layout := gs.DefaultLayout(1)
	src, err := stream.NewSource(layout, seed+1)
	if err != nil {
		return err
	}
	pkts := src.PacketsUntil(layout.Duration())[:idsPerMessage]
	var batches []wire.Serve
	m["wire.split_recycle_ns"], m["wire.split_recycle_allocs"] = timeOp(64, func(int) {
		batches = wire.SplitServeInto(batches[:0], pkts)
		for _, s := range batches {
			wire.RecycleServe(s)
		}
	})

	codec := wire.NewCodec(layout)
	serve := wire.Serve{Packets: pkts[:1]}
	var data []byte
	var encErr error
	m["wire.encode_ns"], _ = timeOp(64, func(int) { data, encErr = codec.Encode(1, serve) })
	if encErr != nil {
		return encErr
	}
	var decErr error
	m["wire.decode_ns"], m["wire.decode_allocs"] = timeOp(64, func(int) { _, _, decErr = codec.Decode(data) })
	return decErr
}

// probePss counts the heap allocations of one complete Cyclon shuffle —
// Tick at the initiator, Handle of the request, Handle of the reply — in a
// ring of records.
func probePss(m metricSet, seed int64) error {
	const n = 64
	cfg := pss.DefaultConfig()
	states := make([]*pss.State, n)
	for i := range states {
		boot := make([]wire.NodeID, cfg.ShuffleLen)
		for j := range boot {
			boot[j] = wire.NodeID((i + 1 + j) % n)
		}
		st, err := pss.NewState(wire.NodeID(i), cfg, seed<<20+int64(i), boot)
		if err != nil {
			return err
		}
		states[i] = st
	}
	shuffles := 0
	m["pss.shuffle_allocs"] = allocsPer(50*n, func(i int) {
		a := wire.NodeID(i % n)
		req, ok := states[a].Tick()
		if !ok {
			return
		}
		if reply, ok := states[req.To].Handle(a, req.Msg); ok {
			states[a].Handle(req.To, reply.Msg)
			shuffles++
		}
	})
	if shuffles == 0 {
		return fmt.Errorf("pss probe completed no shuffle")
	}
	return nil
}

// probeCodec measures the layers off the event path: the uplink shaper, the
// receiver's window assembly, building a 60-window source (every window
// FEC-encoded), FEC encode and a 9-erasure reconstruct of the paper's
// 101+9 × 1316 B window, the GF(256) kernel, and the telemetry fold.
func probeCodec(m metricSet, seed int64) error {
	shaper := shaping.NewShaper(700_000, 128<<10)
	m["shaping.enqueue_ns"], _ = timeOp(256, func(i int) {
		// 35 B every 1 ms is a third of the cap: nothing queues, nothing drops.
		shaper.Enqueue(time.Duration(i)*time.Millisecond, 35)
	})

	layout := gs.DefaultLayout(60)
	total := layout.TotalPackets()
	var recv *stream.Receiver
	m["stream.deliver_ns"], _ = timeOp(total, func(i int) {
		if i%total == 0 {
			recv = stream.NewReceiver(layout)
		}
		recv.Deliver(stream.PacketID(i%total), time.Duration(i))
	})

	start := time.Now()
	src, err := stream.NewSource(layout, seed+1)
	if err != nil {
		return err
	}
	if got := len(src.PacketsUntil(layout.Duration())); got != total {
		return fmt.Errorf("source produced %d of %d packets", got, total)
	}
	m["stream.source_build_ms"] = float64(time.Since(start).Nanoseconds()) / 1e6

	code, err := fec.New(fec.PaperDataShares, fec.PaperParityShares)
	if err != nil {
		return err
	}
	data := fec.AllocShares(fec.PaperDataShares, layout.PayloadBytes)
	rng := megasim.NewRand(seed)
	for _, d := range data {
		rng.Read(d)
	}
	parity := fec.AllocShares(fec.PaperParityShares, layout.PayloadBytes)
	windowMB := float64(fec.PaperDataShares*layout.PayloadBytes) / 1e6
	var fecErr error
	ns, _ := timeOp(4, func(int) { fecErr = code.EncodeInto(data, parity) })
	if fecErr != nil {
		return fecErr
	}
	m["fec.encode_mb_per_s"] = windowMB / (ns / 1e9)

	// Lose the first nine data shares; the nine parity shares replace them.
	var shares []fec.Share
	for i := fec.PaperParityShares; i < fec.PaperDataShares; i++ {
		shares = append(shares, fec.Share{Index: i, Data: data[i]})
	}
	for i, p := range parity {
		shares = append(shares, fec.Share{Index: fec.PaperDataShares + i, Data: p})
	}
	out := fec.AllocShares(fec.PaperDataShares, layout.PayloadBytes)
	ns, _ = timeOp(4, func(int) { fecErr = code.ReconstructInto(shares, out) })
	if fecErr != nil {
		return fecErr
	}
	if string(out[0]) != string(data[0]) {
		return fmt.Errorf("fec probe reconstructed a wrong share")
	}
	m["fec.reconstruct_mb_per_s"] = windowMB / (ns / 1e9)

	coeffs := make([]byte, len(data))
	rng.Read(coeffs)
	dst := make([]byte, layout.PayloadBytes)
	ns, _ = timeOp(4, func(int) { gf256.MulAddSlices(coeffs, data, dst) })
	m["gf256.muladd_mb_per_s"] = windowMB / (ns / 1e9)

	var lag telemetry.LagAccum
	m["telemetry.lag_observe_ns"], _ = timeOp(1024, func(i int) {
		lag.Observe(time.Duration(i%200) * time.Second)
	})
	var hist telemetry.Hist
	m["telemetry.hist_observe_ns"], _ = timeOp(1024, func(i int) { hist.Observe(int64(i)) })
	return nil
}
