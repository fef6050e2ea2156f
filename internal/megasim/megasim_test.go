package megasim

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"gossipstream/internal/shaping"
	"gossipstream/internal/simnet"
	"gossipstream/internal/stream"
	"gossipstream/internal/wire"
)

// flatNet is a latency model with no randomness: every pair is exactly
// the median apart, nothing is lost.
func flatNet(median time.Duration) simnet.Config {
	return simnet.Config{BaseLatencyMedian: median}
}

type recorder struct {
	env   *NodeEnv
	froms []NodeID
	at    []time.Duration
}

func (r *recorder) HandleMessage(from NodeID, msg wire.Message) {
	r.froms = append(r.froms, from)
	r.at = append(r.at, r.env.Now())
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Shards: 0},
		{Shards: 1, Net: simnet.Config{LossRate: 1}},
		{Shards: 1, Net: simnet.Config{LossRate: -0.1}},
		{Shards: 1, Net: simnet.Config{PairSpread: 1}},
		{Shards: 1, Net: simnet.Config{JitterFrac: 1}},
		{Shards: 1, Net: simnet.Config{BaseLatencySigma: -1}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d: want error, got nil", i)
		}
	}
	if _, err := New(Config{Shards: 2, Net: flatNet(time.Millisecond)}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestQueuePopsInTimeOriginOrder pins the shard queue's tie rule: events
// pop by time, same-instant ones by origin, and one origin's events of one
// instant in push order.
func TestQueuePopsInTimeOriginOrder(t *testing.T) {
	// The subtest is named for the queue under test, the radix heap.
	t.Run("heap", func(t *testing.T) {
		e, err := New(Config{Shards: 1, Net: flatNet(time.Millisecond)})
		if err != nil {
			t.Fatal(err)
		}
		s := e.shards[0]
		rng := rand.New(rand.NewSource(7))
		// A hundred events an instant from eight origins: more than the
		// dozen below which an unstable sort happens to keep ties in order.
		const n = 500
		for i := 0; i < n; i++ {
			at := time.Duration(rng.Intn(5)) * time.Millisecond
			s.q.push(event{at: at, from: NodeID(rng.Intn(8)), ref: uint32(i)})
		}
		var prev event
		for i := 0; i < n; i++ {
			ev := s.q.pop()
			if i > 0 {
				switch {
				case ev.at < prev.at:
					t.Fatalf("pop %d: time went backwards: %v after %v", i, ev.at, prev.at)
				case ev.at == prev.at && ev.from < prev.from:
					t.Fatalf("pop %d: origin went backwards at %v: %d after %d", i, ev.at, ev.from, prev.from)
				case ev.at == prev.at && ev.from == prev.from && ev.ref < prev.ref:
					t.Fatalf("pop %d: origin %d's events at %v left push order: push %d after %d", i, ev.from, ev.at, ev.ref, prev.ref)
				}
			}
			prev = ev
		}
	})
}

// TestCrossShardDeliveryTiming pins the delivery path end to end: with a
// flat latency model a cross-shard message arrives exactly one base
// latency after the send, regardless of the conservative window size.
func TestCrossShardDeliveryTiming(t *testing.T) {
	const lat = 10 * time.Millisecond
	e, err := New(Config{Shards: 2, Net: flatNet(lat)})
	if err != nil {
		t.Fatal(err)
	}
	recvs := make([]*recorder, 2)
	envs := make([]*NodeEnv, 2)
	for i := range recvs {
		recvs[i] = &recorder{}
		envs[i] = e.NodeEnv(NodeID(i), NewRand(int64(i)))
		recvs[i].env = envs[i]
		if got := e.AddNode(recvs[i], shaping.Unlimited, 0); got != NodeID(i) {
			t.Fatalf("AddNode = %d, want %d", got, i)
		}
	}
	// Node 0 lives on shard 0, node 1 on shard 1 (round-robin).
	sendAt := 3 * time.Millisecond
	envs[0].After(sendAt, func() { envs[0].Send(1, wire.FeedMe{}) })
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(recvs[1].at) != 1 {
		t.Fatalf("node 1 got %d deliveries, want 1", len(recvs[1].at))
	}
	if want := sendAt + lat; recvs[1].at[0] != want {
		t.Fatalf("delivered at %v, want %v", recvs[1].at[0], want)
	}
	if recvs[1].froms[0] != 0 {
		t.Fatalf("delivered from %d, want 0", recvs[1].froms[0])
	}
	st := e.NodeStats(1)
	if st.RecvMsgs[wire.KindFeedMe] != 1 {
		t.Fatalf("RecvMsgs = %d, want 1", st.RecvMsgs[wire.KindFeedMe])
	}
	if e.Lookahead() <= 0 || e.Lookahead() > lat {
		t.Fatalf("lookahead %v outside (0, %v]", e.Lookahead(), lat)
	}
}

// chatter is a node that periodically sends FEED-ME messages to random
// other nodes — enough traffic to exercise every cross-shard path.
type chatter struct {
	env    *NodeEnv
	n      int
	got    int
	period time.Duration
}

func (c *chatter) HandleMessage(from NodeID, msg wire.Message) { c.got++ }

func (c *chatter) start() {
	c.env.After(c.period, c.tick)
}

func (c *chatter) tick() {
	for i := 0; i < 3; i++ {
		to := NodeID(c.env.Rand().Intn(c.n))
		if to != c.env.ID() {
			c.env.Send(to, wire.FeedMe{})
		}
	}
	c.env.After(c.period, c.tick)
}

func chatterRun(t *testing.T, seed int64, shards int) ([]simnet.Stats, uint64) {
	t.Helper()
	cfg := Config{
		Shards: shards,
		Seed:   seed,
		Net: simnet.Config{
			LossRate:          0.05,
			BaseLatencyMedian: 5 * time.Millisecond,
			BaseLatencySigma:  0.4,
			JitterFrac:        0.3,
			PairSpread:        0.3,
		},
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	nodes := make([]*chatter, n)
	for i := 0; i < n; i++ {
		env := e.NodeEnv(NodeID(i), NewRand(seed<<16+int64(i)))
		nodes[i] = &chatter{env: env, n: n, period: 4 * time.Millisecond}
		e.AddNode(nodes[i], 256_000, 4096)
	}
	for _, c := range nodes {
		c.start()
	}
	e.AtBarrier(200*time.Millisecond, func() {
		e.Crash(NodeID(n - 1))
	})
	if err := e.Run(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	stats := make([]simnet.Stats, n)
	for i := range stats {
		stats[i] = e.NodeStats(NodeID(i))
	}
	return stats, e.Fired()
}

// TestDeterministicReplay is the core guarantee: a fixed (seed, shards)
// pair reproduces the identical run — every per-node counter and the
// total event count — across repeated executions and goroutine schedules.
func TestDeterministicReplay(t *testing.T) {
	for _, shards := range []int{1, 4} {
		a, firedA := chatterRun(t, 42, shards)
		b, firedB := chatterRun(t, 42, shards)
		if firedA != firedB {
			t.Fatalf("shards=%d: fired %d vs %d across replays", shards, firedA, firedB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("shards=%d: per-node stats differ across replays", shards)
		}
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	a, _ := chatterRun(t, 1, 4)
	b, _ := chatterRun(t, 2, 4)
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestDropCountersMirrorSimnet(t *testing.T) {
	// Congestion: a 8 kbps uplink with a 20-byte queue; FEED-ME costs 7
	// bytes on the shaped link, so a burst overflows quickly.
	e, err := New(Config{Shards: 2, Net: flatNet(5 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := &recorder{}, &recorder{}
	env0 := e.NodeEnv(0, NewRand(1))
	r0.env, r1.env = env0, e.NodeEnv(1, NewRand(2))
	e.AddNode(r0, 8_000, 20)
	e.AddNode(r1, shaping.Unlimited, 0)
	const burst = 30
	env0.After(0, func() {
		for i := 0; i < burst; i++ {
			env0.Send(1, wire.FeedMe{})
		}
	})
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	st := e.NodeStats(0)
	if st.CongestionDrops == 0 {
		t.Fatal("burst through a tiny queue produced no CongestionDrops")
	}
	if got := st.SentMsgs[wire.KindFeedMe] + st.CongestionDrops; got != burst {
		t.Fatalf("sent+dropped = %d, want %d (no message may vanish untracked)", got, burst)
	}
	if st.Drops() != st.CongestionDrops {
		t.Fatalf("Drops() = %d, want %d", st.Drops(), st.CongestionDrops)
	}
	total := e.TotalStats()
	if total.CongestionDrops != st.CongestionDrops {
		t.Fatalf("TotalStats congestion = %d, want %d", total.CongestionDrops, st.CongestionDrops)
	}
}

func TestDeadDropCountedAtReceiver(t *testing.T) {
	const lat = 10 * time.Millisecond
	e, err := New(Config{Shards: 2, Net: flatNet(lat)})
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := &recorder{}, &recorder{}
	env0 := e.NodeEnv(0, NewRand(1))
	r0.env, r1.env = env0, e.NodeEnv(1, NewRand(2))
	e.AddNode(r0, shaping.Unlimited, 0)
	e.AddNode(r1, shaping.Unlimited, 0)
	env0.After(0, func() { env0.Send(1, wire.FeedMe{}) })
	// The message is in flight when node 1 crashes; the delivery at 10ms
	// must be dropped and counted.
	e.AtBarrier(5*time.Millisecond, func() { e.Crash(1) })
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(r1.froms) != 0 {
		t.Fatalf("crashed node received %d messages", len(r1.froms))
	}
	if got := e.NodeStats(1).DeadDrops; got != 1 {
		t.Fatalf("receiver DeadDrops = %d, want 1", got)
	}
	if e.NodeStats(0).SentMsgs[wire.KindFeedMe] != 1 {
		t.Fatal("sender did not account the send")
	}
}

func TestCrashedSenderSilent(t *testing.T) {
	e, err := New(Config{Shards: 1, Net: flatNet(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := &recorder{}, &recorder{}
	env0 := e.NodeEnv(0, NewRand(1))
	r0.env, r1.env = env0, e.NodeEnv(1, NewRand(2))
	e.AddNode(r0, shaping.Unlimited, 0)
	e.AddNode(r1, shaping.Unlimited, 0)
	e.Crash(0)
	env0.After(0, func() { env0.Send(1, wire.FeedMe{}) })
	if err := e.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(r1.froms) != 0 {
		t.Fatal("crashed sender's message was delivered")
	}
	if e.NodeStats(0).SentMsgs[wire.KindFeedMe] != 0 {
		t.Fatal("crashed sender accounted a send")
	}
}

func TestRandomLoss(t *testing.T) {
	cfg := Config{Shards: 2, Seed: 9, Net: flatNet(time.Millisecond)}
	cfg.Net.LossRate = 0.5
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := &recorder{}, &recorder{}
	env0 := e.NodeEnv(0, NewRand(1))
	r0.env, r1.env = env0, e.NodeEnv(1, NewRand(2))
	e.AddNode(r0, shaping.Unlimited, 0)
	e.AddNode(r1, shaping.Unlimited, 0)
	const sends = 400
	env0.After(0, func() {
		for i := 0; i < sends; i++ {
			env0.Send(1, wire.FeedMe{})
		}
	})
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	st := e.NodeStats(0)
	if st.RandomDrops < sends/4 || st.RandomDrops > 3*sends/4 {
		t.Fatalf("RandomDrops = %d of %d, far from the 50%% loss rate", st.RandomDrops, sends)
	}
	if got := int(e.NodeStats(1).RecvMsgs[wire.KindFeedMe]) + int(st.RandomDrops); got != sends {
		t.Fatalf("delivered+lost = %d, want %d", got, sends)
	}
}

func TestTimerCancel(t *testing.T) {
	e, err := New(Config{Shards: 1, Net: flatNet(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	env := e.NodeEnv(0, NewRand(1))
	r := &recorder{env: env}
	e.AddNode(r, shaping.Unlimited, 0)
	fired := false
	cancel := env.After(10*time.Millisecond, func() { fired = true })
	cancel()
	cancel() // double-cancel must be harmless
	if err := e.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

// TestAfterTimersDieWithTheirNode: a NodeEnv.After timer armed by a node
// that then crashes, once or twice, neither runs nor counts —
// in Fired or in any shard's load — the way an AfterTimer timer of a
// departed node is dropped. A live node's timer still runs.
func TestAfterTimersDieWithTheirNode(t *testing.T) {
	for _, shards := range []int{1, 2} {
		e, err := New(Config{Shards: shards, Net: flatNet(time.Millisecond)})
		if err != nil {
			t.Fatal(err)
		}
		var fired []NodeID
		for id := NodeID(0); id < 3; id++ {
			env := e.NodeEnv(id, NewRand(int64(id)))
			e.AddNode(&recorder{env: env}, shaping.Unlimited, 0)
			env.After(30*time.Millisecond, func() { fired = append(fired, id) })
		}
		e.AtBarrier(10*time.Millisecond, func() {
			e.Crash(1)
			e.Crash(2)
			e.Crash(2)
		})
		if err := e.Run(100 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		var events, timers uint64
		for _, l := range e.ShardLoads() {
			events += l.Events
			timers += l.Timers
		}
		if !reflect.DeepEqual(fired, []NodeID{0}) || e.Fired() != 1 || events != 1 || timers != 1 {
			t.Fatalf("%d shards: timers of nodes %v ran, %d events fired (%d in shard loads, %d timers): want only node 0's, counted once",
				shards, fired, e.Fired(), events, timers)
		}
	}
}

func TestBarrierRunsBeforeSameInstantEvents(t *testing.T) {
	e, err := New(Config{Shards: 2, Net: flatNet(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	env := e.NodeEnv(0, NewRand(1))
	r := &recorder{env: env}
	e.AddNode(r, shaping.Unlimited, 0)
	e.AddNode(&recorder{env: e.NodeEnv(1, NewRand(2))}, shaping.Unlimited, 0)
	var order []string
	at := 20 * time.Millisecond
	env.After(at, func() { order = append(order, "event") })
	e.AtBarrier(at, func() { order = append(order, "barrier") })
	if err := e.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []string{"barrier", "event"}) {
		t.Fatalf("order = %v, want [barrier event]", order)
	}
}

// TestBarriersRunInTimeThenRegistrationOrder: barriers run at their own
// instants, earliest first and, at one instant, in the order they were
// registered — at one shard, whose window runs to the next barrier, as at
// four.
func TestBarriersRunInTimeThenRegistrationOrder(t *testing.T) {
	for _, shards := range []int{1, 4} {
		e, err := New(Config{Shards: shards, Net: flatNet(time.Millisecond)})
		if err != nil {
			t.Fatal(err)
		}
		for i := range 4 {
			e.AddNode(&recorder{env: e.NodeEnv(NodeID(i), NewRand(int64(i+1)))}, shaping.Unlimited, 0)
		}
		var order []string
		for _, b := range []struct {
			name string
			at   time.Duration
		}{{"a", 30 * time.Millisecond}, {"b", 10 * time.Millisecond}, {"c", 30 * time.Millisecond}, {"d", 10 * time.Millisecond}} {
			e.AtBarrier(b.at, func() {
				if e.Now() != b.at {
					t.Errorf("%d shards: barrier %s at %v observed engine time %v", shards, b.name, b.at, e.Now())
				}
				order = append(order, b.name)
			})
		}
		if err := e.Run(100 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if want := []string{"b", "d", "a", "c"}; !reflect.DeepEqual(order, want) {
			t.Fatalf("%d shards: barriers ran in order %v, want %v", shards, order, want)
		}
	}
}

// TestBarrierObservationsIndependentOfShardCount: a message sent to a node
// on another shard at setup or in a barrier callback is in its
// destination's queue when the send returns, so a later callback at the same
// instant counts it pending, and no outbox carries it, at one, two and four
// shards alike.
func TestBarrierObservationsIndependentOfShardCount(t *testing.T) {
	ids := make([]stream.PacketID, 2*inlineIDs) // a list that spills
	for i := range ids {
		ids[i] = stream.PacketID(i)
	}
	for _, shards := range []int{1, 2, 4} {
		e, err := New(Config{Shards: shards, Net: flatNet(50 * time.Millisecond)})
		if err != nil {
			t.Fatal(err)
		}
		env0 := e.NodeEnv(0, NewRand(1))
		for range 4 {
			e.AddNode(sinkTyped{}, shaping.Unlimited, 0)
		}
		e.SendFrom(0, 1, wire.FeedMe{})
		var pending []int
		observe := func() {
			pending = append(pending, e.Pending())
			for _, l := range e.ShardLoads() {
				if l.OutboxOut != 0 || l.OutboxIn != 0 {
					t.Errorf("%d shards: shard %d handed %d messages to an outbox and merged %d at a barrier", shards, l.Shard, l.OutboxOut, l.OutboxIn)
				}
			}
		}
		e.AtBarrier(0, observe)
		e.AtBarrier(10*time.Millisecond, func() {
			e.SendFrom(0, 3, wire.FeedMe{})
			env0.SendIDs(2, wire.KindRequest, ids)
		})
		e.AtBarrier(10*time.Millisecond, observe)
		if err := e.Run(100 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if want := []int{1, 3}; !reflect.DeepEqual(pending, want) {
			t.Errorf("%d shards: the barriers observed %v pending, want %v", shards, pending, want)
		}
		if got := e.TotalStats(); got.RecvMsgs[wire.KindFeedMe] != 2 || got.RecvMsgs[wire.KindRequest] != 1 || e.Fired() != 3 {
			t.Errorf("%d shards: %d FEED-MEs and %d REQUESTs received in %d events, want 2, 1 and 3", shards, got.RecvMsgs[wire.KindFeedMe], got.RecvMsgs[wire.KindRequest], e.Fired())
		}
	}
}

func TestRunTwiceFails(t *testing.T) {
	e, err := New(Config{Shards: 1, Net: flatNet(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(time.Millisecond); err == nil {
		t.Fatal("second Run did not fail")
	}
}

func TestEventsAtDeadlineExecute(t *testing.T) {
	e, err := New(Config{Shards: 2, Net: flatNet(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	env := e.NodeEnv(0, NewRand(1))
	e.AddNode(&recorder{env: env}, shaping.Unlimited, 0)
	e.AddNode(&recorder{env: e.NodeEnv(1, NewRand(2))}, shaping.Unlimited, 0)
	atDeadline, pastDeadline := false, false
	deadline := 50 * time.Millisecond
	env.After(deadline, func() { atDeadline = true })
	env.After(deadline+1, func() { pastDeadline = true })
	if err := e.Run(deadline); err != nil {
		t.Fatal(err)
	}
	if !atDeadline {
		t.Fatal("event at the deadline did not execute (RunUntil is inclusive)")
	}
	if pastDeadline {
		t.Fatal("event past the deadline executed")
	}
	if e.Now() != deadline {
		t.Fatalf("Now() = %v, want %v", e.Now(), deadline)
	}
}

// TestServePayloadCrossesShards moves a real payload-carrying message
// between shards, the path the gossip protocol stresses hardest.
func TestServePayloadCrossesShards(t *testing.T) {
	e, err := New(Config{Shards: 2, Net: flatNet(2 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	env0 := e.NodeEnv(0, NewRand(1))
	r1 := &recorder{env: e.NodeEnv(1, NewRand(2))}
	e.AddNode(&recorder{env: env0}, shaping.Unlimited, 0)
	e.AddNode(r1, shaping.Unlimited, 0)
	pkt := &stream.Packet{ID: 7, Payload: make([]byte, 1316)}
	env0.After(0, func() { env0.Send(1, wire.Serve{Packets: []*stream.Packet{pkt}}) })
	if err := e.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(r1.froms) != 1 {
		t.Fatalf("got %d deliveries, want 1", len(r1.froms))
	}
	wantBytes := uint64(wire.Serve{Packets: []*stream.Packet{pkt}}.WireSize() - wire.UDPOverheadBytes)
	if got := e.NodeStats(1).RecvBytes[wire.KindServe]; got != wantBytes {
		t.Fatalf("RecvBytes = %d, want %d", got, wantBytes)
	}
}
