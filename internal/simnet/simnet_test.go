// The tests below state the properties of the network model this package
// defines and check them on the engine that executes it. They live here,
// beside Config and Stats, and drive internal/megasim from the outside
// (one shard, the default a paper-scale run uses), so the package that
// documents the model is also where a change to it fails first.
//
// Where the engine's own suite pins the same mechanism at two shards, the
// test is named: TestCongestionDrop ↔ megasim.TestDropCountersMirrorSimnet,
// TestRandomLossStatistics ↔ megasim.TestRandomLoss, TestCrashStopsDelivery
// ↔ megasim.TestDeadDropCountedAtReceiver, TestCrashedSenderSilent ↔
// megasim.TestCrashedSenderSilent, TestDeterministicReplay ↔
// megasim.TestDeterministicReplay.
package simnet_test

import (
	"reflect"
	"testing"
	"time"

	"gossipstream/internal/megasim"
	"gossipstream/internal/shaping"
	"gossipstream/internal/simnet"
	"gossipstream/internal/stream"
	"gossipstream/internal/wire"
)

// delivery is one message as its destination saw it.
type delivery struct {
	from  simnet.NodeID
	kind  wire.Kind
	first stream.PacketID // first id of a PROPOSE/REQUEST, else 0
	nIDs  int
	at    time.Duration
}

// recorder is a node that records its deliveries.
type recorder struct {
	env *megasim.NodeEnv
	got []delivery
}

func (r *recorder) HandleMessage(from simnet.NodeID, msg wire.Message) {
	d := delivery{from: from, kind: msg.Kind(), at: r.env.Now()}
	var ids []stream.PacketID
	switch m := msg.(type) {
	case wire.Propose:
		ids = m.IDs
	case wire.Request:
		ids = m.IDs
	}
	if len(ids) > 0 {
		d.first, d.nIDs = ids[0], len(ids)
	}
	r.got = append(r.got, d)
}

// quietConfig removes all randomness so delays are exactly computable.
func quietConfig() simnet.Config {
	return simnet.Config{BaseLatencyMedian: 40 * time.Millisecond}
}

// link is one uplink: a cap in bits per second and a queue bound in bytes.
type link struct{ upBps, queueBytes int64 }

var unlimited = link{shaping.Unlimited, 0}

// testbed is a one-shard engine over recorder nodes, one per link.
type testbed struct {
	*megasim.Engine
	nodes []*recorder
}

func newTestbed(t *testing.T, cfg simnet.Config, seed int64, links ...link) *testbed {
	t.Helper()
	eng, err := megasim.New(megasim.Config{Net: cfg, Shards: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	tb := &testbed{Engine: eng}
	for i, l := range links {
		rec := &recorder{env: eng.NodeEnv(simnet.NodeID(i), megasim.NewRand(int64(i)))}
		if id := eng.AddNode(rec, l.upBps, l.queueBytes); id != simnet.NodeID(i) {
			t.Fatalf("AddNode = %d, want %d", id, i)
		}
		tb.nodes = append(tb.nodes, rec)
	}
	return tb
}

// newPair is a sender a = 0 behind the given uplink and an unshaped
// receiver b = 1.
func newPair(t *testing.T, cfg simnet.Config, upBps int64) *testbed {
	t.Helper()
	return newTestbed(t, cfg, 1, link{upBps, 1 << 20}, unlimited)
}

const a, b = simnet.NodeID(0), simnet.NodeID(1)

func (tb *testbed) run(t *testing.T) {
	t.Helper()
	if err := tb.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
}

func TestSendDelivers(t *testing.T) {
	tb := newPair(t, quietConfig(), shaping.Unlimited)
	tb.SendFrom(a, b, wire.Propose{IDs: []stream.PacketID{1, 2, 3}})
	tb.run(t)
	got := tb.nodes[b].got
	// Unlimited uplink: delivery exactly at base latency (40ms both nodes).
	want := []delivery{{from: a, kind: wire.KindPropose, first: 1, nIDs: 3, at: 40 * time.Millisecond}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %+v, want %+v", got, want)
	}
}

func TestSendShapedDelay(t *testing.T) {
	// 800 kbps uplink: a propose of 3 ids costs 7+12 = 19 application
	// bytes against the cap (IP/UDP overhead is not charged — the paper's
	// limiter throttles application bytes) → 190 µs serialization, then
	// 40 ms propagation.
	tb := newPair(t, quietConfig(), 800_000)
	tb.SendFrom(a, b, wire.Propose{IDs: []stream.PacketID{1, 2, 3}})
	tb.run(t)
	want := 190*time.Microsecond + 40*time.Millisecond
	if got := tb.nodes[b].got; len(got) != 1 || got[0].at != want {
		t.Fatalf("delivered %+v, want one message at %v", got, want)
	}
}

func TestSendQueueingIsFIFO(t *testing.T) {
	tb := newPair(t, quietConfig(), 100_000)
	for i := 0; i < 5; i++ {
		tb.SendFrom(a, b, wire.Request{IDs: []stream.PacketID{stream.PacketID(i)}})
	}
	tb.run(t)
	got := tb.nodes[b].got
	if len(got) != 5 {
		t.Fatalf("delivered %d, want 5", len(got))
	}
	for i := range got {
		if got[i].first != stream.PacketID(i) {
			t.Fatalf("message %d carries id %d, want FIFO order", i, got[i].first)
		}
		if i > 0 && got[i].at <= got[i-1].at {
			t.Fatal("shaped messages delivered without spacing")
		}
	}
}

func TestCongestionDrop(t *testing.T) {
	tb := newTestbed(t, quietConfig(), 1, link{100_000, 100}, unlimited) // tiny queue
	for i := 0; i < 10; i++ {
		tb.SendFrom(a, b, wire.Serve{Packets: []*stream.Packet{{ID: 1, Payload: make([]byte, 500)}}})
	}
	tb.run(t)
	st := tb.NodeStats(a)
	if st.CongestionDrops == 0 {
		t.Fatal("no congestion drops on overloaded tiny queue")
	}
	if int(st.SentMsgs[wire.KindServe])+int(st.CongestionDrops) != 10 {
		t.Fatalf("sent %d + dropped %d != 10", st.SentMsgs[wire.KindServe], st.CongestionDrops)
	}
	if len(tb.nodes[b].got) != int(st.SentMsgs[wire.KindServe]) {
		t.Fatalf("delivered %d, accepted %d", len(tb.nodes[b].got), st.SentMsgs[wire.KindServe])
	}
}

func TestRandomLossStatistics(t *testing.T) {
	cfg := quietConfig()
	cfg.LossRate = 0.3
	tb := newTestbed(t, cfg, 42, unlimited, unlimited)
	const total = 2000
	for i := 0; i < total; i++ {
		tb.SendFrom(a, b, wire.FeedMe{})
	}
	tb.run(t)
	got := len(tb.nodes[b].got)
	// Expect ≈ 1400 delivered; allow generous tolerance.
	if got < total*6/10 || got > total*8/10 {
		t.Fatalf("delivered %d of %d at 30%% loss, want ≈70%%", got, total)
	}
	if int(tb.NodeStats(a).RandomDrops) != total-got {
		t.Fatalf("RandomDrops = %d, want %d", tb.NodeStats(a).RandomDrops, total-got)
	}
}

func TestCrashStopsDelivery(t *testing.T) {
	tb := newPair(t, quietConfig(), shaping.Unlimited)
	tb.SendFrom(a, b, wire.FeedMe{})
	tb.Crash(b)
	tb.SendFrom(a, b, wire.FeedMe{})
	tb.run(t)
	if n := len(tb.nodes[b].got); n != 0 {
		t.Fatalf("crashed node received %d messages", n)
	}
	if tb.Alive(b) {
		t.Fatal("Alive(b) after crash")
	}
	// A dead drop is noticed where the message lands, so the ledger books
	// it at the destination.
	if got := tb.NodeStats(b).DeadDrops; got != 2 {
		t.Fatalf("DeadDrops = %d, want 2 (both were in flight when b died)", got)
	}
}

func TestCrashedSenderSilent(t *testing.T) {
	tb := newPair(t, quietConfig(), shaping.Unlimited)
	tb.Crash(a)
	tb.SendFrom(a, b, wire.FeedMe{})
	tb.run(t)
	if len(tb.nodes[b].got) != 0 {
		t.Fatal("crashed sender's message was delivered")
	}
	if tb.NodeStats(a).TotalSentBytes() != 0 {
		t.Fatal("crashed sender accounted bytes")
	}
}

func TestInFlightFromCrashedSenderDropped(t *testing.T) {
	tb := newPair(t, quietConfig(), shaping.Unlimited)
	tb.SendFrom(a, b, wire.FeedMe{})
	// Crash the sender before propagation completes: packet dies.
	tb.AtBarrier(10*time.Millisecond, func() { tb.Crash(a) })
	tb.run(t)
	if len(tb.nodes[b].got) != 0 {
		t.Fatal("in-flight message from crashed sender delivered")
	}
	if got := tb.NodeStats(b).DeadDrops; got != 1 {
		t.Fatalf("DeadDrops = %d, want 1", got)
	}
}

func TestLatencyHeterogeneity(t *testing.T) {
	links := make([]link, 100)
	for i := range links {
		links[i] = unlimited
	}
	tb := newTestbed(t, simnet.DefaultConfig(), 7, links...)
	var min, max time.Duration
	for i := range links {
		l := tb.BaseLatency(simnet.NodeID(i))
		if i == 0 || l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if max < 2*min {
		t.Fatalf("base latencies too homogeneous: min %v max %v", min, max)
	}
}

func TestStatsAccounting(t *testing.T) {
	tb := newPair(t, quietConfig(), shaping.Unlimited)
	msg := wire.Propose{IDs: []stream.PacketID{1, 2}}
	tb.SendFrom(a, b, msg)
	tb.run(t)
	sa, sb := tb.NodeStats(a), tb.NodeStats(b)
	// Byte counters track application bytes (what the limiter throttles).
	want := uint64(msg.WireSize() - wire.UDPOverheadBytes)
	if sa.SentBytes[wire.KindPropose] != want || sa.SentMsgs[wire.KindPropose] != 1 {
		t.Fatalf("sender stats = %d bytes %d msgs, want %d 1", sa.SentBytes[wire.KindPropose], sa.SentMsgs[wire.KindPropose], want)
	}
	if sb.RecvBytes[wire.KindPropose] != want || sb.RecvMsgs[wire.KindPropose] != 1 {
		t.Fatalf("receiver stats = %d bytes %d msgs, want %d 1", sb.RecvBytes[wire.KindPropose], sb.RecvMsgs[wire.KindPropose], want)
	}
	if sa.TotalSentBytes() != want || sb.TotalRecvBytes() != want {
		t.Fatal("totals disagree with per-kind counters")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []delivery {
		tb := newTestbed(t, simnet.DefaultConfig(), 99, link{700_000, 64 * 1024}, link{700_000, 64 * 1024})
		for i := 0; i < 50; i++ {
			i := i
			tb.nodes[a].env.After(time.Duration(i)*10*time.Millisecond, func() {
				tb.nodes[a].env.Send(b, wire.Request{IDs: []stream.PacketID{stream.PacketID(i)}})
			})
		}
		tb.run(t)
		return tb.nodes[b].got
	}
	t1, t2 := run(), run()
	if len(t1) == 0 || !reflect.DeepEqual(t1, t2) {
		t.Fatalf("replay diverged: %d vs %d deliveries", len(t1), len(t2))
	}
}

func TestUnknownNodePanics(t *testing.T) {
	tb := newTestbed(t, quietConfig(), 1, unlimited)
	defer func() {
		if recover() == nil {
			t.Fatal("Send to unknown node did not panic")
		}
	}()
	tb.SendFrom(0, 1, wire.FeedMe{})
}

func TestNilHandlerPanics(t *testing.T) {
	tb := newTestbed(t, quietConfig(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("AddNode(nil) did not panic")
		}
	}()
	tb.AddNode(nil, 0, 0)
}

func TestPairFactorDeterministicAndBounded(t *testing.T) {
	const salt, spread = 0x5eed, 0.4
	for a := simnet.NodeID(0); a < 50; a += 7 {
		for b := simnet.NodeID(1); b < 50; b += 11 {
			f1 := simnet.PairFactor(salt, a, b, spread)
			if f2 := simnet.PairFactor(salt, a, b, spread); f1 != f2 {
				t.Fatal("pair factor not deterministic")
			}
			if f1 < 1-spread || f1 > 1+spread {
				t.Fatalf("pair factor %v outside [%v, %v]", f1, 1-spread, 1+spread)
			}
		}
	}
	// Factors must actually vary across pairs, and with the salt.
	if simnet.PairFactor(salt, 1, 2, spread) == simnet.PairFactor(salt, 3, 4, spread) &&
		simnet.PairFactor(salt, 5, 6, spread) == simnet.PairFactor(salt, 7, 8, spread) {
		t.Fatal("pair factors suspiciously constant")
	}
	if simnet.PairFactor(salt, 1, 2, spread) == simnet.PairFactor(salt+1, 1, 2, spread) {
		t.Fatal("pair factor ignores the salt")
	}
}

func TestShuffleTrafficAccounted(t *testing.T) {
	tb := newPair(t, quietConfig(), shaping.Unlimited)
	tb.SendFrom(a, b, wire.Shuffle{Entries: []wire.ShuffleEntry{{ID: 3, Age: 1}}})
	tb.run(t)
	// Membership traffic rides the same shaped links and the same ledger
	// as the stream; b runs no sampler, so the engine drops the payload
	// after counting the delivery.
	if got := tb.NodeStats(a).SentMsgs[wire.KindShuffle]; got != 1 {
		t.Fatalf("shuffle sends = %d, want 1", got)
	}
	if got := tb.NodeStats(b).RecvMsgs[wire.KindShuffle]; got != 1 {
		t.Fatalf("shuffle deliveries = %d, want 1", got)
	}
}

func TestTotalStatsAggregatesDrops(t *testing.T) {
	const c = simnet.NodeID(2)
	cfg := simnet.DefaultConfig()
	cfg.LossRate = 0 // isolate congestion and dead drops
	// a's uplink is tiny: bursts overflow.
	tb := newTestbed(t, cfg, 1, link{8_000, 20}, unlimited, unlimited)
	for i := 0; i < 30; i++ {
		tb.SendFrom(a, b, wire.FeedMe{})
	}
	// c's message is in flight when its destination b crashes.
	tb.nodes[c].env.After(time.Millisecond, func() { tb.nodes[c].env.Send(b, wire.FeedMe{}) })
	tb.AtBarrier(2*time.Millisecond, func() { tb.Crash(b) })
	tb.run(t)

	sa, sb := tb.NodeStats(a), tb.NodeStats(b)
	if sa.CongestionDrops == 0 {
		t.Fatal("expected congestion drops on the tiny uplink")
	}
	// a's accepted sends were still serializing when b crashed, so they
	// dead-drop at b alongside c's single in-flight message.
	if want := sa.SentMsgs[wire.KindFeedMe] + 1; sb.DeadDrops != want {
		t.Fatalf("DeadDrops = %d, want %d", sb.DeadDrops, want)
	}
	if got := sa.Drops(); got != sa.CongestionDrops+sa.RandomDrops+sa.DeadDrops {
		t.Fatalf("Drops() = %d, inconsistent with counters", got)
	}

	total := tb.TotalStats()
	var want simnet.Stats
	for id := 0; id < tb.N(); id++ {
		want.Add(tb.NodeStats(simnet.NodeID(id)))
	}
	if total != want {
		t.Fatal("TotalStats does not equal the sum of NodeStats")
	}
	if total.CongestionDrops != sa.CongestionDrops || total.DeadDrops != sb.DeadDrops {
		t.Fatal("aggregate drop counters lost node contributions")
	}
	// Conservation: every accepted send is delivered or accounted as lost.
	sentMsgs := uint64(0)
	recvMsgs := uint64(0)
	for k := 0; k < wire.KindCount; k++ {
		sentMsgs += total.SentMsgs[k]
		recvMsgs += total.RecvMsgs[k]
	}
	if sentMsgs != recvMsgs+total.RandomDrops+total.DeadDrops {
		t.Fatalf("conservation violated: sent %d != recv %d + lost %d",
			sentMsgs, recvMsgs, total.RandomDrops+total.DeadDrops)
	}
}
