package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"gossipstream/internal/member"
	"gossipstream/internal/stream"
	"gossipstream/internal/wire"
)

// clock is the tests' virtual time: callbacks fire in (instant, scheduling
// order) order, as on the engine, and a cancelled one never fires.
type clock struct {
	now     time.Duration
	pending []*clockEvent // by instant, ties in scheduling order
}

type clockEvent struct {
	at time.Duration
	fn func() // nil once cancelled
}

// After schedules fn d from now (a negative d counts as zero) and returns
// what cancels it.
func (c *clock) After(d time.Duration, fn func()) func() {
	e := &clockEvent{at: c.now + max(d, 0), fn: fn}
	i := sort.Search(len(c.pending), func(i int) bool { return c.pending[i].at > e.at })
	c.pending = slices.Insert(c.pending, i, e)
	return func() { e.fn = nil }
}

// Now returns the current virtual time.
func (c *clock) Now() time.Duration { return c.now }

// RunUntil fires everything due by deadline, then moves the clock there.
func (c *clock) RunUntil(deadline time.Duration) {
	for len(c.pending) > 0 && c.pending[0].at <= deadline {
		e := c.pending[0]
		c.pending = c.pending[1:]
		c.now = e.at
		if e.fn != nil {
			e.fn()
		}
	}
	c.now = max(c.now, deadline)
}

// bus is a perfect in-memory network for unit-testing protocol logic:
// every message is delivered after a fixed delay unless a drop hook vetoes
// it. It also logs all traffic.
type bus struct {
	sched *clock
	peers map[wire.NodeID]*Peer
	delay time.Duration
	drop  func(from, to wire.NodeID, msg wire.Message) bool
	log   []busEntry
}

type busEntry struct {
	from, to wire.NodeID
	msg      wire.Message
	at       time.Duration
}

func newBus(sched *clock, delay time.Duration) *bus {
	return &bus{sched: sched, peers: make(map[wire.NodeID]*Peer), delay: delay}
}

func (b *bus) send(from, to wire.NodeID, msg wire.Message) {
	b.log = append(b.log, busEntry{from: from, to: to, msg: msg, at: b.sched.Now()})
	if b.drop != nil && b.drop(from, to, msg) {
		return
	}
	b.sched.After(b.delay, func() {
		if p, ok := b.peers[to]; ok {
			p.HandleMessage(from, msg)
		}
	})
}

// busEnv implements Env for one node on a bus.
type busEnv struct {
	id  wire.NodeID
	bus *bus
	rng *rand.Rand
}

func (e *busEnv) ID() wire.NodeID    { return e.id }
func (e *busEnv) Now() time.Duration { return e.bus.sched.Now() }
func (e *busEnv) Send(to wire.NodeID, msg wire.Message) {
	e.bus.send(e.id, to, msg)
}
func (e *busEnv) After(d time.Duration, fn func()) func() {
	return e.bus.sched.After(d, fn)
}
func (e *busEnv) Rand() *rand.Rand { return e.rng }

// tinyLayout: 3 windows of 4+2 packets, 10 ms per data packet.
func tinyLayout() stream.Layout {
	return stream.Layout{
		RateBps:         80_000,
		PayloadBytes:    100,
		DataPerWindow:   4,
		ParityPerWindow: 2,
		Windows:         3,
	}
}

// cluster builds a source plus n-1 peers on a fresh bus.
type cluster struct {
	sched *clock
	bus   *bus
	peers []*Peer // index = NodeID; peers[0] is the source
}

func newCluster(t *testing.T, n int, cfg Config, layout stream.Layout) *cluster {
	t.Helper()
	sched := &clock{}
	b := newBus(sched, 5*time.Millisecond)
	c := &cluster{sched: sched, bus: b}
	for i := 0; i < n; i++ {
		id := wire.NodeID(i)
		env := &busEnv{id: id, bus: b, rng: rand.New(rand.NewSource(int64(100 + i)))}
		sampler := member.NewSparseView(id, n, env.rng)
		var p *Peer
		var err error
		if i == 0 {
			src, serr := stream.NewSource(layout, 1)
			if serr != nil {
				t.Fatal(serr)
			}
			p, err = NewSourcePeer(env, cfg, sampler, src)
		} else {
			p, err = NewPeer(env, cfg, sampler, layout)
		}
		if err != nil {
			t.Fatal(err)
		}
		b.peers[id] = p
		c.peers = append(c.peers, p)
	}
	return c
}

func (c *cluster) startAll() {
	for _, p := range c.peers {
		p.Start()
	}
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Fanout = 3
	cfg.SourceFanout = 3
	cfg.GossipPeriod = 50 * time.Millisecond
	cfg.RetPeriod = 100 * time.Millisecond
	return cfg
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"default valid", func(c *Config) {}, true},
		{"zero fanout", func(c *Config) { c.Fanout = 0 }, false},
		{"zero source fanout", func(c *Config) { c.SourceFanout = 0 }, false},
		{"zero period", func(c *Config) { c.GossipPeriod = 0 }, false},
		{"negative refresh", func(c *Config) { c.RefreshEvery = -1 }, false},
		{"refresh never ok", func(c *Config) { c.RefreshEvery = member.Never }, true},
		{"negative feed", func(c *Config) { c.FeedEvery = -2 }, false},
		{"zero ret period", func(c *Config) { c.RetPeriod = 0 }, false},
		{"zero max requests", func(c *Config) { c.MaxRequests = 0 }, false},
		{"zero max proposers", func(c *Config) { c.MaxProposers = 0 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); (err == nil) != tt.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestNewPeerRejectsBadInput(t *testing.T) {
	sched := &clock{}
	b := newBus(sched, 0)
	env := &busEnv{id: 0, bus: b, rng: rand.New(rand.NewSource(1))}
	sampler := member.NewSparseView(0, 4, env.rng)
	bad := DefaultConfig()
	bad.Fanout = -1
	if _, err := NewPeer(env, bad, sampler, tinyLayout()); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := NewPeer(env, DefaultConfig(), sampler, stream.Layout{}); err == nil {
		t.Fatal("invalid layout accepted")
	}
	if _, err := NewSourcePeer(env, DefaultConfig(), sampler, nil); err == nil {
		t.Fatal("nil source accepted")
	}
}

func TestFullDisseminationOnPerfectNetwork(t *testing.T) {
	layout := tinyLayout()
	c := newCluster(t, 8, testConfig(), layout)
	c.startAll()
	c.sched.RunUntil(layout.Duration() + 3*time.Second)

	for i, p := range c.peers {
		if got := p.Receiver().Delivered(); got != layout.TotalPackets() {
			t.Fatalf("peer %d delivered %d/%d packets", i, got, layout.TotalPackets())
		}
		for w := 0; w < layout.Windows; w++ {
			if _, ok := p.Receiver().CompletionTime(w); !ok {
				t.Fatalf("peer %d window %d incomplete", i, w)
			}
		}
	}
}

func TestInfectAndDie(t *testing.T) {
	// Each node proposes a given id in at most one round: the propose
	// messages for id X from sender S must all share one timestamp bucket
	// (same round), because ids are cleared after being gossiped once.
	layout := tinyLayout()
	cfg := testConfig()
	c := newCluster(t, 6, cfg, layout)
	c.startAll()
	c.sched.RunUntil(layout.Duration() + 3*time.Second)

	type key struct {
		sender wire.NodeID
		id     stream.PacketID
	}
	rounds := make(map[key]map[time.Duration]bool)
	for _, e := range c.bus.log {
		prop, ok := e.msg.(wire.Propose)
		if !ok {
			continue
		}
		for _, id := range prop.IDs {
			k := key{sender: e.from, id: id}
			if rounds[k] == nil {
				rounds[k] = make(map[time.Duration]bool)
			}
			rounds[k][e.at] = true
		}
	}
	for k, times := range rounds {
		if len(times) > 1 {
			t.Fatalf("node %d proposed id %d in %d distinct rounds, want 1 (infect-and-die)", k.sender, k.id, len(times))
		}
	}
}

func TestDuplicateRequestSuppression(t *testing.T) {
	// Drive a peer by hand: two PROPOSEs for the same id from different
	// senders must yield exactly one REQUEST (to the first proposer).
	sched := &clock{}
	b := newBus(sched, time.Millisecond)
	env := &busEnv{id: 5, bus: b, rng: rand.New(rand.NewSource(5))}
	p, err := NewPeer(env, testConfig(), member.NewSparseView(5, 10, env.rng), tinyLayout())
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	p.HandleMessage(1, wire.Propose{IDs: []stream.PacketID{0, 1}})
	p.HandleMessage(2, wire.Propose{IDs: []stream.PacketID{0, 1}})

	var requests []busEntry
	for _, e := range b.log {
		if _, ok := e.msg.(wire.Request); ok {
			requests = append(requests, e)
		}
	}
	if len(requests) != 1 {
		t.Fatalf("sent %d REQUESTs after duplicate proposes, want 1", len(requests))
	}
	if requests[0].to != 1 {
		t.Fatalf("requested from %d, want first proposer 1", requests[0].to)
	}
	if got := requests[0].msg.(wire.Request).IDs; len(got) != 2 {
		t.Fatalf("requested %d ids, want 2", len(got))
	}
	p.Stop()
}

func TestAlreadyDeliveredNotRequested(t *testing.T) {
	sched := &clock{}
	b := newBus(sched, time.Millisecond)
	env := &busEnv{id: 5, bus: b, rng: rand.New(rand.NewSource(5))}
	layout := tinyLayout()
	p, err := NewPeer(env, testConfig(), member.NewSparseView(5, 10, env.rng), layout)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	pkt := &stream.Packet{ID: 0, Payload: make([]byte, layout.PayloadBytes)}
	p.HandleMessage(1, wire.Serve{Packets: []*stream.Packet{pkt}})
	p.HandleMessage(2, wire.Propose{IDs: []stream.PacketID{0}})
	for _, e := range b.log {
		if _, ok := e.msg.(wire.Request); ok {
			t.Fatal("peer requested an id it already delivered")
		}
	}
	p.Stop()
}

func TestServeOnlyHeldPackets(t *testing.T) {
	sched := &clock{}
	b := newBus(sched, time.Millisecond)
	env := &busEnv{id: 5, bus: b, rng: rand.New(rand.NewSource(5))}
	layout := tinyLayout()
	p, err := NewPeer(env, testConfig(), member.NewSparseView(5, 10, env.rng), layout)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	held := &stream.Packet{ID: 3, Payload: make([]byte, layout.PayloadBytes)}
	p.HandleMessage(1, wire.Serve{Packets: []*stream.Packet{held}})
	p.HandleMessage(2, wire.Request{IDs: []stream.PacketID{3, 4, 5}})

	var serves []wire.Serve
	for _, e := range b.log {
		if s, ok := e.msg.(wire.Serve); ok && e.from == 5 {
			serves = append(serves, s)
		}
	}
	if len(serves) != 1 || len(serves[0].Packets) != 1 || serves[0].Packets[0].ID != 3 {
		t.Fatalf("serves = %+v, want exactly packet 3", serves)
	}
	if p.Counters().PacketsServed != 1 {
		t.Fatalf("PacketsServed = %d, want 1", p.Counters().PacketsServed)
	}
	p.Stop()
}

func TestRequestForUnknownPacketSilent(t *testing.T) {
	sched := &clock{}
	b := newBus(sched, time.Millisecond)
	env := &busEnv{id: 5, bus: b, rng: rand.New(rand.NewSource(5))}
	p, err := NewPeer(env, testConfig(), member.NewSparseView(5, 10, env.rng), tinyLayout())
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	before := len(b.log)
	p.HandleMessage(2, wire.Request{IDs: []stream.PacketID{9}})
	if len(b.log) != before {
		t.Fatal("peer responded to a request for a packet it does not hold")
	}
	p.Stop()
}

func TestRetransmissionRecoversLostServe(t *testing.T) {
	// Drop the first SERVE between any pair; the requester's ret timer
	// must re-request and eventually deliver every id it asked for. (Whether
	// infect-and-die reaches every node is up to the sampler's draws, not
	// to retransmission.)
	layout := tinyLayout()
	cfg := testConfig()
	c := newCluster(t, 5, cfg, layout)
	dropped := make(map[[2]wire.NodeID]bool)
	c.bus.drop = func(from, to wire.NodeID, msg wire.Message) bool {
		if _, ok := msg.(wire.Serve); !ok {
			return false
		}
		k := [2]wire.NodeID{from, to}
		if !dropped[k] {
			dropped[k] = true
			return true
		}
		return false
	}
	c.startAll()
	c.sched.RunUntil(layout.Duration() + 5*time.Second)

	for _, e := range c.bus.log {
		if req, ok := e.msg.(wire.Request); ok {
			for _, id := range req.IDs {
				if !c.peers[e.from].Receiver().Has(id) {
					t.Fatalf("peer %d requested packet %d and never received it", e.from, id)
				}
			}
		}
	}
	retransmissions := 0
	for _, p := range c.peers {
		retransmissions += p.Counters().Retransmissions
	}
	if retransmissions == 0 {
		t.Fatal("no retransmissions recorded although serves were dropped")
	}
}

func TestRetransmissionRespectsKCap(t *testing.T) {
	// All serves dropped: each id must be requested at most MaxRequests
	// times by each node.
	layout := tinyLayout()
	cfg := testConfig()
	cfg.MaxRequests = 2
	c := newCluster(t, 4, cfg, layout)
	c.bus.drop = func(from, to wire.NodeID, msg wire.Message) bool {
		_, isServe := msg.(wire.Serve)
		return isServe
	}
	c.startAll()
	c.sched.RunUntil(layout.Duration() + 5*time.Second)

	perNodeID := make(map[wire.NodeID]map[stream.PacketID]int)
	for _, e := range c.bus.log {
		req, ok := e.msg.(wire.Request)
		if !ok {
			continue
		}
		if perNodeID[e.from] == nil {
			perNodeID[e.from] = make(map[stream.PacketID]int)
		}
		for _, id := range req.IDs {
			perNodeID[e.from][id]++
		}
	}
	sawRetransmit := false
	for node, ids := range perNodeID {
		for id, count := range ids {
			if count > cfg.MaxRequests {
				t.Fatalf("node %d requested id %d %d times, cap K=%d", node, id, count, cfg.MaxRequests)
			}
			if count > 1 {
				sawRetransmit = true
			}
		}
	}
	if !sawRetransmit {
		t.Fatal("expected at least one retransmission under total serve loss")
	}
}

func TestFeedMeCadenceAndEffect(t *testing.T) {
	layout := tinyLayout()
	cfg := testConfig()
	cfg.FeedEvery = 2
	cfg.RefreshEvery = member.Never
	c := newCluster(t, 6, cfg, layout)
	c.startAll()
	c.sched.RunUntil(layout.Duration() + 2*time.Second)

	feeds := 0
	for _, e := range c.bus.log {
		if _, ok := e.msg.(wire.FeedMe); ok {
			feeds++
		}
	}
	if feeds == 0 {
		t.Fatal("FeedEvery=2 sent no FEED-ME messages")
	}
	rounds := c.peers[1].Counters().Rounds
	wantMax := (rounds/2 + 1) * cfg.Fanout
	sent := c.peers[1].Counters().FeedMesSent
	if sent == 0 || sent > wantMax {
		t.Fatalf("peer 1 sent %d FEED-MEs over %d rounds, want in (0, %d]", sent, rounds, wantMax)
	}
}

func TestFeedMeDisabledByDefault(t *testing.T) {
	layout := tinyLayout()
	c := newCluster(t, 5, testConfig(), layout)
	c.startAll()
	c.sched.RunUntil(layout.Duration() + time.Second)
	for _, e := range c.bus.log {
		if _, ok := e.msg.(wire.FeedMe); ok {
			t.Fatal("FEED-ME sent although FeedEvery = Never")
		}
	}
}

func TestSourceIgnoresProposes(t *testing.T) {
	sched := &clock{}
	b := newBus(sched, time.Millisecond)
	env := &busEnv{id: 0, bus: b, rng: rand.New(rand.NewSource(1))}
	src, err := stream.NewSource(tinyLayout(), 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewSourcePeer(env, testConfig(), member.NewSparseView(0, 5, env.rng), src)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsSource() {
		t.Fatal("IsSource() = false for source peer")
	}
	p.Start()
	before := len(b.log)
	p.HandleMessage(1, wire.Propose{IDs: []stream.PacketID{0, 1, 2}})
	if len(b.log) != before {
		t.Fatal("source sent a REQUEST in response to a propose")
	}
	p.Stop()
}

func TestStoppedPeerInert(t *testing.T) {
	sched := &clock{}
	b := newBus(sched, time.Millisecond)
	env := &busEnv{id: 5, bus: b, rng: rand.New(rand.NewSource(5))}
	p, err := NewPeer(env, testConfig(), member.NewSparseView(5, 10, env.rng), tinyLayout())
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	p.Stop()
	p.HandleMessage(1, wire.Propose{IDs: []stream.PacketID{0}})
	sched.RunUntil(time.Hour)
	if len(b.log) != 0 {
		t.Fatalf("stopped peer produced %d messages", len(b.log))
	}
	if p.Counters().Rounds != 0 {
		t.Fatal("stopped peer ran gossip rounds")
	}
}

func TestStopIsIdempotentAndRestartable(t *testing.T) {
	sched := &clock{}
	b := newBus(sched, time.Millisecond)
	env := &busEnv{id: 1, bus: b, rng: rand.New(rand.NewSource(5))}
	p, err := NewPeer(env, testConfig(), member.NewSparseView(1, 4, env.rng), tinyLayout())
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	p.Start() // double start must not double timers
	p.Stop()
	p.Stop()
	p.Start()
	sched.RunUntil(500 * time.Millisecond)
	if p.Counters().Rounds == 0 {
		t.Fatal("restarted peer never ticked")
	}
}

// TestRestartRequestsAgainWhatWasPending: Stop drops the pending
// retransmissions, so it must forget that their ids were requested. It
// used to keep their request state, and after a restart a fresh PROPOSE
// of such an id found it "already requested" — with no timer left to
// retry it, the id was never asked for again.
func TestRestartRequestsAgainWhatWasPending(t *testing.T) {
	sched := &clock{}
	b := newBus(sched, time.Millisecond)
	env := &busEnv{id: 1, bus: b, rng: rand.New(rand.NewSource(5))}
	p, err := NewPeer(env, testConfig(), member.NewSparseView(1, 8, env.rng), tinyLayout())
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	p.HandleMessage(3, wire.Propose{IDs: []stream.PacketID{5}})
	p.Stop()
	p.Start()
	p.HandleMessage(4, wire.Propose{IDs: []stream.PacketID{5}})
	sched.RunUntil(time.Minute)
	var to3, to4 int
	for _, e := range b.log {
		if _, ok := e.msg.(wire.Request); ok {
			switch e.to {
			case 3:
				to3++
			case 4:
				to4++
			}
		}
	}
	if k := testConfig().MaxRequests; to3 != 1 || to4 != k {
		t.Fatalf("%d REQUESTs to the first proposer and %d to the one after the restart, want 1 and K = %d", to3, to4, k)
	}
	p.Stop()
}

func TestDuplicateServeCounted(t *testing.T) {
	sched := &clock{}
	b := newBus(sched, time.Millisecond)
	env := &busEnv{id: 5, bus: b, rng: rand.New(rand.NewSource(5))}
	layout := tinyLayout()
	p, err := NewPeer(env, testConfig(), member.NewSparseView(5, 10, env.rng), layout)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	pkt := &stream.Packet{ID: 2, Payload: make([]byte, layout.PayloadBytes)}
	p.HandleMessage(1, wire.Serve{Packets: []*stream.Packet{pkt}})
	p.HandleMessage(3, wire.Serve{Packets: []*stream.Packet{pkt}})
	if got := p.Counters().DuplicateServes; got != 1 {
		t.Fatalf("DuplicateServes = %d, want 1", got)
	}
	if got := p.Receiver().Delivered(); got != 1 {
		t.Fatalf("Delivered = %d, want 1", got)
	}
	p.Stop()
}

func TestOutOfStreamIDsIgnored(t *testing.T) {
	sched := &clock{}
	b := newBus(sched, time.Millisecond)
	env := &busEnv{id: 5, bus: b, rng: rand.New(rand.NewSource(5))}
	p, err := NewPeer(env, testConfig(), member.NewSparseView(5, 10, env.rng), tinyLayout())
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	p.HandleMessage(1, wire.Propose{IDs: []stream.PacketID{99999}})
	for _, e := range b.log {
		if _, ok := e.msg.(wire.Request); ok {
			t.Fatal("peer requested an id outside the stream")
		}
	}
	p.Stop()
}

func TestRefreshNeverKeepsPartners(t *testing.T) {
	// With X=Never the set of propose targets across all rounds must be
	// exactly the initial fanout-sized set.
	layout := tinyLayout()
	cfg := testConfig()
	cfg.RefreshEvery = member.Never
	c := newCluster(t, 10, cfg, layout)
	c.startAll()
	c.sched.RunUntil(layout.Duration() + 2*time.Second)

	targets := make(map[wire.NodeID]map[wire.NodeID]bool)
	for _, e := range c.bus.log {
		if _, ok := e.msg.(wire.Propose); !ok {
			continue
		}
		if targets[e.from] == nil {
			targets[e.from] = make(map[wire.NodeID]bool)
		}
		targets[e.from][e.to] = true
	}
	for from, tos := range targets {
		if len(tos) > cfg.Fanout {
			t.Fatalf("node %d proposed to %d distinct targets with X=Never, want ≤ %d", from, len(tos), cfg.Fanout)
		}
	}
}

func TestCountersProgress(t *testing.T) {
	layout := tinyLayout()
	c := newCluster(t, 6, testConfig(), layout)
	c.startAll()
	c.sched.RunUntil(layout.Duration() + 2*time.Second)
	src := c.peers[0].Counters()
	if src.Rounds == 0 || src.ProposesSent == 0 || src.PacketsServed == 0 {
		t.Fatalf("source counters did not progress: %+v", src)
	}
	peer := c.peers[1].Counters()
	if peer.RequestsSent == 0 {
		t.Fatalf("peer counters did not progress: %+v", peer)
	}
}
