package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"gossipstream/internal/member"
	"gossipstream/internal/stream"
	"gossipstream/internal/wire"
)

// harness bundles one hand-driven peer with its bus for edge-case tests.
type harness struct {
	sched *clock
	bus   *bus
	peer  *Peer
}

func newHarness(t *testing.T, cfg Config, layout stream.Layout) *harness {
	t.Helper()
	sched := &clock{}
	b := newBus(sched, time.Millisecond)
	env := &busEnv{id: 9, bus: b, rng: rand.New(rand.NewSource(9))}
	p, err := NewPeer(env, cfg, member.NewSparseView(9, 64, env.rng), layout)
	if err != nil {
		t.Fatal(err)
	}
	b.peers[9] = p
	p.Start()
	return &harness{sched: sched, bus: b, peer: p}
}

func (h *harness) requestsSentTo() map[wire.NodeID][]stream.PacketID {
	out := make(map[wire.NodeID][]stream.PacketID)
	for _, e := range h.bus.log {
		if req, ok := e.msg.(wire.Request); ok && e.from == 9 {
			out[e.to] = append(out[e.to], req.IDs...)
		}
	}
	return out
}

// bigLayout gives enough ids to exercise message splitting.
func bigLayout() stream.Layout {
	return stream.Layout{
		RateBps:         600_000,
		PayloadBytes:    1316,
		DataPerWindow:   101,
		ParityPerWindow: 9,
		Windows:         10,
	}
}

func TestProposeSplitAcrossMTU(t *testing.T) {
	// A propose listing more ids than fit in one datagram must be split,
	// and the receiver must request all of them.
	cfg := testConfig()
	h := newHarness(t, cfg, bigLayout())
	n := wire.MaxIDsPerMessage + 50
	ids := make([]stream.PacketID, n)
	for i := range ids {
		ids[i] = stream.PacketID(i)
	}
	h.peer.HandleMessage(3, wire.Propose{IDs: ids})
	var requested int
	for _, batch := range h.requestsSentTo() {
		requested += len(batch)
	}
	if requested != n {
		t.Fatalf("requested %d of %d proposed ids", requested, n)
	}
	for _, e := range h.bus.log {
		if req, ok := e.msg.(wire.Request); ok {
			if len(req.IDs) > wire.MaxIDsPerMessage {
				t.Fatalf("request of %d ids exceeds MTU bound %d", len(req.IDs), wire.MaxIDsPerMessage)
			}
		}
	}
	h.peer.Stop()
}

func TestRetryTargetsSameProposerByDefault(t *testing.T) {
	cfg := testConfig()
	cfg.Retry = RetrySameProposer
	cfg.MaxRequests = 3
	h := newHarness(t, cfg, tinyLayout())
	// Proposer 3 proposes first, 4 proposes the same ids later.
	h.peer.HandleMessage(3, wire.Propose{IDs: []stream.PacketID{0, 1}})
	h.peer.HandleMessage(4, wire.Propose{IDs: []stream.PacketID{0, 1}})
	// Never serve: let all retries fire.
	h.sched.RunUntil(time.Minute)
	reqs := h.requestsSentTo()
	if len(reqs[4]) != 0 {
		t.Fatalf("strict policy re-requested from a later proposer: %v", reqs[4])
	}
	if len(reqs[3]) != 2*cfg.MaxRequests {
		t.Fatalf("proposer 3 received %d id-requests, want %d (K×ids)", len(reqs[3]), 2*cfg.MaxRequests)
	}
	h.peer.Stop()
}

func TestRetryRandomUsesRecordedProposers(t *testing.T) {
	cfg := testConfig()
	cfg.Retry = RetryRandomProposer
	cfg.MaxRequests = 6
	h := newHarness(t, cfg, tinyLayout())
	h.peer.HandleMessage(3, wire.Propose{IDs: []stream.PacketID{0}})
	h.peer.HandleMessage(4, wire.Propose{IDs: []stream.PacketID{0}})
	h.peer.HandleMessage(5, wire.Propose{IDs: []stream.PacketID{0}})
	h.sched.RunUntil(2 * time.Minute)
	reqs := h.requestsSentTo()
	targets := 0
	for _, to := range []wire.NodeID{3, 4, 5} {
		if len(reqs[to]) > 0 {
			targets++
		}
	}
	if targets < 2 {
		t.Fatalf("random retry policy used %d distinct proposers, want ≥2", targets)
	}
	h.peer.Stop()
}

func TestMaxProposersBounded(t *testing.T) {
	cfg := testConfig()
	cfg.Retry = RetryRandomProposer // the policy that keeps proposer lists
	cfg.MaxProposers = 2
	h := newHarness(t, cfg, tinyLayout())
	for from := wire.NodeID(1); from <= 8; from++ {
		h.peer.HandleMessage(from, wire.Propose{IDs: []stream.PacketID{0}})
	}
	list := h.peer.proposerList(0, len(h.peer.batchIDs))
	if list == nil {
		t.Fatal("no proposer list recorded")
	}
	if got := int(list[0]); got != cfg.MaxProposers {
		t.Fatalf("recorded %d proposers, bound is %d", got, cfg.MaxProposers)
	}
	if got, want := list[1:1+cfg.MaxProposers], []wire.NodeID{1, 2}; !slices.Equal(got, want) {
		t.Fatalf("recorded proposers %v, want the first two, %v", got, want)
	}
	h.peer.Stop()
}

func TestRetryStopsOnceDelivered(t *testing.T) {
	cfg := testConfig()
	layout := tinyLayout()
	h := newHarness(t, cfg, layout)
	h.peer.HandleMessage(3, wire.Propose{IDs: []stream.PacketID{0}})
	// Serve arrives before the ret timer fires.
	pkt := &stream.Packet{ID: 0, Payload: make([]byte, layout.PayloadBytes)}
	h.peer.HandleMessage(3, wire.Serve{Packets: []*stream.Packet{pkt}})
	h.sched.RunUntil(time.Minute)
	if got := h.peer.Counters().Retransmissions; got != 0 {
		t.Fatalf("%d retransmissions although the packet was served in time", got)
	}
	h.peer.Stop()
}

func TestNoRetryTimersWhenKIsOne(t *testing.T) {
	cfg := testConfig()
	cfg.MaxRequests = 1
	h := newHarness(t, cfg, tinyLayout())
	h.peer.HandleMessage(3, wire.Propose{IDs: []stream.PacketID{0, 1}})
	if len(h.peer.batches) != 0 || cap(h.peer.batchIDs) != 0 {
		t.Fatal("ret timer armed although K=1 forbids retries")
	}
	h.sched.RunUntil(time.Minute)
	if h.peer.Counters().Retransmissions != 0 {
		t.Fatal("retransmissions occurred with K=1")
	}
	h.peer.Stop()
}

func TestRetryJitterWithinBounds(t *testing.T) {
	// The retry must fire within [RetPeriod, 1.5×RetPeriod] of the propose.
	cfg := testConfig()
	cfg.RetPeriod = time.Second
	h := newHarness(t, cfg, tinyLayout())
	proposeAt := h.sched.Now()
	h.peer.HandleMessage(3, wire.Propose{IDs: []stream.PacketID{0}})
	var retryAt time.Duration
	found := false
	h.sched.RunUntil(10 * time.Second)
	for _, e := range h.bus.log[1:] { // skip the initial request
		if _, ok := e.msg.(wire.Request); ok && e.from == 9 {
			retryAt = e.at
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no retry fired")
	}
	delay := retryAt - proposeAt
	if delay < cfg.RetPeriod || delay > cfg.RetPeriod*3/2+time.Millisecond {
		t.Fatalf("retry fired after %v, want within [1.0, 1.5]×%v", delay, cfg.RetPeriod)
	}
	h.peer.Stop()
}

func TestFeedMeChangesReceiverView(t *testing.T) {
	// A received FEED-ME must steer future proposes toward the requester.
	layout := tinyLayout()
	cfg := testConfig()
	cfg.RefreshEvery = member.Never
	sched := &clock{}
	b := newBus(sched, time.Millisecond)
	env := &busEnv{id: 0, bus: b, rng: rand.New(rand.NewSource(30))}
	src, err := stream.NewSource(layout, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewSourcePeer(env, cfg, member.NewSparseView(0, 64, env.rng), src)
	if err != nil {
		t.Fatal(err)
	}
	b.peers[0] = p
	p.Start()
	// Flood feed-mes from node 63 until it occupies a partner slot, then
	// check that proposes reach it.
	for i := 0; i < 8; i++ {
		p.HandleMessage(63, wire.FeedMe{})
	}
	sched.RunUntil(layout.Duration() + time.Second)
	got := false
	for _, e := range b.log {
		if _, ok := e.msg.(wire.Propose); ok && e.to == 63 {
			got = true
			break
		}
	}
	if !got {
		t.Fatal("feed-me requester never received a propose from a static view")
	}
	p.Stop()
}

func TestServeBatchesRespectMTU(t *testing.T) {
	cfg := testConfig()
	layout := bigLayout()
	h := newHarness(t, cfg, layout)
	// Hold 5 large packets, then get a request for all of them.
	var ids []stream.PacketID
	for i := 0; i < 5; i++ {
		pkt := &stream.Packet{ID: stream.PacketID(i), Payload: make([]byte, layout.PayloadBytes)}
		h.peer.HandleMessage(2, wire.Serve{Packets: []*stream.Packet{pkt}})
		ids = append(ids, pkt.ID)
	}
	before := len(h.bus.log)
	h.peer.HandleMessage(7, wire.Request{IDs: ids})
	served := 0
	for _, e := range h.bus.log[before:] {
		if s, ok := e.msg.(wire.Serve); ok {
			if s.WireSize()-wire.UDPOverheadBytes > wire.MTUBytes {
				t.Fatalf("serve of %d bytes exceeds MTU", s.WireSize())
			}
			served += len(s.Packets)
		}
	}
	if served != 5 {
		t.Fatalf("served %d packets, want 5", served)
	}
	h.peer.Stop()
}

func TestSourceServesFromStreamStore(t *testing.T) {
	// The source must serve packets it published even before any peer
	// serves them back (lookup falls through to the stream.Source).
	layout := tinyLayout()
	cfg := testConfig()
	sched := &clock{}
	b := newBus(sched, time.Millisecond)
	env := &busEnv{id: 0, bus: b, rng: rand.New(rand.NewSource(31))}
	src, err := stream.NewSource(layout, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewSourcePeer(env, cfg, member.NewSparseView(0, 8, env.rng), src)
	if err != nil {
		t.Fatal(err)
	}
	b.peers[0] = p
	p.Start()
	sched.RunUntil(layout.Duration()) // source publishes everything
	before := len(b.log)
	p.HandleMessage(3, wire.Request{IDs: []stream.PacketID{0, 1}})
	served := 0
	for _, e := range b.log[before:] {
		if s, ok := e.msg.(wire.Serve); ok {
			served += len(s.Packets)
		}
	}
	if served != 2 {
		t.Fatalf("source served %d packets, want 2", served)
	}
	p.Stop()
}

func TestGossipRoundsRespectPeriod(t *testing.T) {
	layout := tinyLayout()
	cfg := testConfig()
	c := newCluster(t, 4, cfg, layout)
	c.startAll()
	horizon := 2 * time.Second
	c.sched.RunUntil(horizon)
	for i, p := range c.peers {
		maxRounds := int(horizon/cfg.GossipPeriod) + 1
		if got := p.Counters().Rounds; got > maxRounds {
			t.Fatalf("peer %d ran %d rounds in %v (period %v)", i, got, horizon, cfg.GossipPeriod)
		}
		if got := p.Counters().Rounds; got < maxRounds-2 {
			t.Fatalf("peer %d ran only %d rounds in %v", i, got, horizon)
		}
	}
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}
