package rt

import (
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"gossipstream/internal/core"
	"gossipstream/internal/fec"
	"gossipstream/internal/metrics"
	"gossipstream/internal/shaping"
	"gossipstream/internal/stream"
	wirepkg "gossipstream/internal/wire"
)

// fastLayout is a small, fast stream for real-time tests: 5 windows of
// 8+2 packets at 400 kbps → ≈2 s of stream.
func fastLayout() stream.Layout {
	return stream.Layout{
		RateBps:         400_000,
		PayloadBytes:    1200,
		DataPerWindow:   8,
		ParityPerWindow: 2,
		Windows:         5,
	}
}

func fastCore() core.Config {
	// Fanout 5 keeps the probability of an infect-and-die wave missing a
	// node negligible at the 8-node test scale (the paper's ln(n)+c rule).
	cfg := core.DefaultConfig()
	cfg.Fanout = 5
	cfg.SourceFanout = 5
	cfg.GossipPeriod = 40 * time.Millisecond
	cfg.RetPeriod = 300 * time.Millisecond
	return cfg
}

func TestClusterStreamsOverUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	layout := fastLayout()
	cluster, err := NewCluster(8, fastCore(), layout, shaping.Unlimited, 42)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(layout.Duration() + 20*time.Second)
	for time.Now().Before(deadline) {
		if allComplete(cluster, layout) {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	for i, n := range cluster.Nodes {
		q := metrics.Evaluate(n.Receiver(), layout)
		if frac := q.CompleteFraction(metrics.InfiniteLag); frac < 1 {
			t.Errorf("node %d completed %.0f%% of windows over real UDP", i, frac*100)
		}
	}
}

func allComplete(c *Cluster, layout stream.Layout) bool {
	for _, n := range c.Nodes {
		if n.Receiver().Delivered() < layout.TotalPackets() {
			return false
		}
	}
	return true
}

func TestClusterPacedUpload(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	// Capped nodes must still deliver, just slower; this exercises the
	// shaped send path.
	layout := stream.Layout{
		RateBps:         200_000,
		PayloadBytes:    1000,
		DataPerWindow:   6,
		ParityPerWindow: 1,
		Windows:         3,
	}
	cluster, err := NewCluster(5, fastCore(), layout, 2_000_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(layout.Duration() + 20*time.Second)
	for time.Now().Before(deadline) && !allComplete(cluster, layout) {
		time.Sleep(100 * time.Millisecond)
	}
	for i, n := range cluster.Nodes {
		if got := n.Receiver().Delivered(); got < layout.TotalPackets()*9/10 {
			t.Errorf("node %d delivered %d/%d packets with paced upload", i, got, layout.TotalPackets())
		}
	}
}

func TestNodeLifecycleErrors(t *testing.T) {
	layout := fastLayout()
	node, err := New(Config{ID: 1, Core: fastCore(), Layout: layout}, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	if err := node.Start(); err == nil {
		t.Fatal("Start succeeded with no peers registered")
	}
	node.AddPeer(2, node.Addr()) // self-loop is fine for the test
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	if err := node.Start(); err == nil {
		t.Fatal("double Start did not error")
	}
}

func TestNodeStopIdempotent(t *testing.T) {
	node, err := New(Config{ID: 1, Core: fastCore(), Layout: fastLayout()}, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	node.AddPeer(2, node.Addr())
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	node.Stop()
	node.Stop() // must not panic or deadlock
}

func TestNewRejectsBadConfig(t *testing.T) {
	bad := fastCore()
	bad.Fanout = 0
	if _, err := New(Config{ID: 1, Core: bad, Layout: fastLayout()}, "127.0.0.1:0", nil); err == nil {
		t.Fatal("invalid core config accepted")
	}
	if _, err := New(Config{ID: 1, Core: fastCore(), Layout: fastLayout()}, "not-an-addr:xx", nil); err == nil {
		t.Fatal("invalid bind address accepted")
	}
}

func TestClusterRejectsTooFewNodes(t *testing.T) {
	if _, err := NewCluster(1, fastCore(), fastLayout(), 0, 1); err == nil {
		t.Fatal("1-node cluster accepted")
	}
}

func TestDirSamplerExcludesUnknownAndIsUniform(t *testing.T) {
	node, err := New(Config{ID: 0, Core: fastCore(), Layout: fastLayout()}, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	addr := node.Addr()
	for i := 1; i <= 10; i++ {
		node.AddPeer(wirepkg.NodeID(5+i), addr)
	}
	s := &dirSampler{node: node}
	counts := make(map[int]int)
	for trial := 0; trial < 2000; trial++ {
		got := s.Sample(3)
		if len(got) != 3 {
			t.Fatalf("Sample(3) returned %d", len(got))
		}
		seen := make(map[int]bool)
		for _, id := range got {
			if id < 6 || id > 15 {
				t.Fatalf("sampled unknown id %d", id)
			}
			if seen[int(id)] {
				t.Fatal("duplicate in sample")
			}
			seen[int(id)] = true
			counts[int(id)]++
		}
	}
	want := 2000.0 * 3 / 10
	for id, c := range counts {
		if float64(c) < want*0.8 || float64(c) > want*1.2 {
			t.Fatalf("id %d sampled %d times, want ≈%.0f", id, c, want)
		}
	}
	if got := s.Sample(100); len(got) != 10 {
		t.Fatalf("oversized sample returned %d ids, want all 10", len(got))
	}
}

// TestDirSamplerIgnoresDirectoryOrder: two nodes with equal seeds whose
// directories were filled in opposite orders draw the same samples — the
// sampler sorts what it reads out of the directory map before drawing.
func TestDirSamplerIgnoresDirectoryOrder(t *testing.T) {
	var samplers [2]*dirSampler
	for i := range samplers {
		node, err := New(Config{ID: 0, Core: fastCore(), Layout: fastLayout(), Seed: 9}, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer node.Stop()
		for j := 1; j <= 40; j++ {
			id := j
			if i == 1 {
				id = 41 - j
			}
			node.AddPeer(wirepkg.NodeID(id), node.Addr())
		}
		samplers[i] = &dirSampler{node: node}
	}
	for draw := 0; draw < 50; draw++ {
		if a, b := samplers[0].Sample(5), samplers[1].Sample(5); !slices.Equal(a, b) {
			t.Fatalf("draw %d: %v and %v from equal seeds", draw, a, b)
		}
	}
}

// TestUplinkDropsAtTheModelsQueueBound: a capped uplink holds what the
// simulator's does, shaping.DefaultQueueBytes of backlog, and drops the
// rest. A node that never starts drains nothing, so a burst of 400
// PROPOSEs of 300 ids (≈1.2 KB each) through its 100 kbps uplink leaves
// 128 KB of them queued and the others dropped.
func TestUplinkDropsAtTheModelsQueueBound(t *testing.T) {
	n, err := New(Config{ID: 1, Core: fastCore(), Layout: fastLayout(), UploadCapBps: 100_000}, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	env := &rtEnv{node: n}
	msg := wirepkg.Propose{IDs: make([]stream.PacketID, 300)}
	const sends = 400
	n.mu.Lock()
	for range sends {
		env.Send(2, msg)
	}
	n.mu.Unlock()
	queued, dropped := len(n.sendQ), n.Dropped()
	if queued+int(dropped) != sends {
		t.Fatalf("%d queued + %d dropped of %d sends", queued, dropped, sends)
	}
	// The shaper charges application bytes and admits a message while the
	// backlog stays within the bound; rounding may move one either way.
	fit := int(shaping.DefaultQueueBytes) / (msg.WireSize() - wirepkg.UDPOverheadBytes)
	if queued < fit-1 || queued > fit+1 {
		t.Fatalf("%d of %d PROPOSEs queued (%d dropped), want the %d that fit in %d bytes", queued, sends, dropped, fit, shaping.DefaultQueueBytes)
	}
}

// TestUnlimitedUplinkDropsOnlyAtTheSendQueue: an uncapped uplink admits
// every send at once, so a burst that no sender drains fills the send
// queue, and only what overflows it is dropped.
func TestUnlimitedUplinkDropsOnlyAtTheSendQueue(t *testing.T) {
	n, err := New(Config{ID: 1, Core: fastCore(), Layout: fastLayout(), UploadCapBps: shaping.Unlimited}, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	env := &rtEnv{node: n}
	msg := wirepkg.Propose{IDs: make([]stream.PacketID, 300)}
	const over = 10
	n.mu.Lock()
	for range sendQueueLen + over {
		env.Send(2, msg)
	}
	n.mu.Unlock()
	if queued, dropped := len(n.sendQ), n.Dropped(); queued != sendQueueLen || dropped != over {
		t.Fatalf("%d queued, %d dropped: want %d queued, %d dropped", queued, dropped, sendQueueLen, over)
	}
}

// TestSendStampsTheShapersDepartures: each queued datagram carries the
// departure the uplink model gives it. A burst through a capped uplink
// leaves back to back, each one serialization of its application bytes
// after the one before, and no earlier than it was sent.
func TestSendStampsTheShapersDepartures(t *testing.T) {
	const capBps = 100_000
	n, err := New(Config{ID: 1, Core: fastCore(), Layout: fastLayout(), UploadCapBps: capBps}, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	env := &rtEnv{node: n}
	msg := wirepkg.Propose{IDs: make([]stream.PacketID, 100)}
	const sends = 5
	n.mu.Lock()
	sentAt := env.Now()
	for range sends {
		env.Send(2, msg)
	}
	n.mu.Unlock()
	if len(n.sendQ) != sends {
		t.Fatalf("%d of %d sends queued", len(n.sendQ), sends)
	}
	ser := time.Duration(float64((msg.WireSize()-wirepkg.UDPOverheadBytes)*8) / capBps * float64(time.Second))
	prev := sentAt
	for i := range sends {
		out := <-n.sendQ
		if i == 0 && out.depart < sentAt+ser {
			t.Fatalf("first datagram departs at %v, before %v sent plus %v serialization", out.depart, sentAt, ser)
		}
		if i > 0 && out.depart-prev != ser {
			t.Fatalf("datagram %d departs %v after the one before, want %v", i, out.depart-prev, ser)
		}
		prev = out.depart
	}
}

// TestSendPathRecyclesServeBackings: every SERVE the engine splits takes a
// 1,952-byte packet-list backing from wire's pool; the send path must hand
// it back once the datagram is encoded, or each SERVE costs that array
// again. A few hundred one-packet SERVEs through a loopback node, one in
// flight at a time, must average well under it.
func TestSendPathRecyclesServeBackings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats sync.Pool reuse")
	}
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	n, err := New(Config{ID: 0, Core: fastCore(), Layout: fastLayout(), UploadCapBps: shaping.Unlimited}, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	n.AddPeer(1, sink.LocalAddr().(*net.UDPAddr))
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()

	env := &rtEnv{node: n}
	pkts := []*stream.Packet{{ID: 1, Payload: make([]byte, 64)}}
	buf := make([]byte, 2048)
	var scratch []wirepkg.Serve
	serve := func(count int) {
		for i := 0; i < count; i++ {
			n.mu.Lock()
			scratch = wirepkg.SplitServeInto(scratch[:0], pkts)
			env.Send(1, scratch[0])
			n.mu.Unlock()
			// The datagram's arrival means the send loop is done with the
			// message, so at most one backing is ever out of the pool.
			_ = sink.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := sink.Read(buf); err != nil {
				t.Fatalf("SERVE %d never reached the sink: %v", i, err)
			}
		}
	}
	serve(50) // warm the pool and the socket path
	const serves = 300
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	serve(serves)
	runtime.ReadMemStats(&after)
	if perServe := (after.TotalAlloc - before.TotalAlloc) / serves; perServe >= 1024 {
		t.Fatalf("%d bytes allocated per SERVE sent, want < 1024 (an unrecycled backing alone is 1952)", perServe)
	} else {
		t.Logf("%d bytes allocated per SERVE sent", perServe)
	}
}

// TestServesCarryRecoverableBytes: the real-time driver is the one that
// puts payload bytes on a wire, so its SERVEs must carry the stream's real
// packets, FEC parity included. A bare UDP socket requests window 0 from a
// source node — every packet of it but ParityPerWindow data packets —
// decodes the SERVEs that come back and reconstructs the window with fec:
// the data must be the stream's, byte for byte.
func TestServesCarryRecoverableBytes(t *testing.T) {
	layout := fastLayout()
	src, err := stream.NewSource(layout, 9)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := stream.NewSource(layout, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.PacketsUntil(layout.WindowPublishTime(0))
	sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	n, err := New(Config{ID: 0, Core: fastCore(), Layout: layout, UploadCapBps: shaping.Unlimited}, "127.0.0.1:0", src)
	if err != nil {
		t.Fatal(err)
	}
	n.AddPeer(1, sock.LocalAddr().(*net.UDPAddr))
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	for deadline := time.Now().Add(10 * time.Second); n.Receiver().Count(0) < layout.WindowTotal(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the source did not publish window 0")
		}
	}

	codec := wirepkg.NewCodec(layout)
	var ids []stream.PacketID
	for i := layout.ParityPerWindow; i < layout.WindowTotal(); i++ {
		ids = append(ids, layout.IDFor(0, i))
	}
	req, err := codec.Encode(1, wirepkg.Request{IDs: ids})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sock.WriteToUDP(req, n.Addr()); err != nil {
		t.Fatal(err)
	}
	var shares []fec.Share
	buf := make([]byte, 2048)
	for len(shares) < len(ids) {
		_ = sock.SetReadDeadline(time.Now().Add(5 * time.Second))
		size, err := sock.Read(buf)
		if err != nil {
			t.Fatalf("%d of %d requested packets served: %v", len(shares), len(ids), err)
		}
		_, msg, err := codec.Decode(buf[:size])
		if err != nil {
			t.Fatal(err)
		}
		if serve, ok := msg.(wirepkg.Serve); ok {
			for _, p := range serve.Packets {
				shares = append(shares, fec.Share{Index: int(p.Index), Data: p.Payload})
			}
		}
	}
	code, err := fec.New(layout.DataPerWindow, layout.ParityPerWindow)
	if err != nil {
		t.Fatal(err)
	}
	data, err := code.Reconstruct(shares)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range data {
		if !slices.Equal(d, want[i].Payload) {
			t.Fatalf("data packet %d of window 0, reconstructed from the SERVEs, differs from the stream's", i)
		}
	}
}
