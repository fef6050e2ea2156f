package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"gossipstream/internal/member"
	"gossipstream/internal/stream"
	"gossipstream/internal/wire"
)

// flatBusEnv is busEnv as a TimerEnv: timers come back through OnTimer,
// typed sends are logged as the message they stand for — a SERVE of ids as
// the SERVE of packets of their payload width — and delivered through
// HandleIDs, in a slice that is cleared once the handler returns — a peer
// that kept it would read zeroes.
type flatBusEnv struct {
	busEnv
	peer *Peer
}

func (e *flatBusEnv) FlatTimers() bool { return true }

func (e *flatBusEnv) AfterTimer(d time.Duration, kind uint8, arg uint32) {
	e.bus.sched.After(d, func() { e.peer.OnTimer(kind, arg) })
}

func (e *flatBusEnv) SendIDs(to wire.NodeID, kind wire.Kind, ids []stream.PacketID) {
	own := slices.Clone(ids)
	var msg wire.Message = wire.Propose{IDs: slices.Clone(ids)}
	if kind == wire.KindRequest {
		msg = wire.Request{IDs: slices.Clone(ids)}
	}
	e.deliver(to, msg, func(p *Peer) {
		p.HandleIDs(e.id, kind, own)
		clear(own)
	})
}

func (e *flatBusEnv) SendServe(to wire.NodeID, ids []stream.PacketID, payloadBytes int) {
	own := slices.Clone(ids)
	pkts := make([]*stream.Packet, len(ids))
	for i, id := range ids {
		pkts[i] = &stream.Packet{ID: id, Payload: make([]byte, payloadBytes)}
	}
	e.deliver(to, wire.Serve{Packets: pkts}, func(p *Peer) {
		p.HandleIDs(e.id, wire.KindServe, own)
		clear(own)
	})
}

var _ TimerEnv = (*flatBusEnv)(nil)

// deliver is bus.send with the delivery left to the caller.
func (e *flatBusEnv) deliver(to wire.NodeID, logged wire.Message, hand func(*Peer)) {
	b := e.bus
	b.log = append(b.log, busEntry{from: e.id, to: to, msg: logged, at: b.sched.Now()})
	if b.drop != nil && b.drop(e.id, to, logged) {
		return
	}
	b.sched.After(b.delay, func() {
		if p, ok := b.peers[to]; ok {
			hand(p)
		}
	})
}

// lossyLayout has small payloads, so REQUESTs are answered by multi-packet
// SERVEs.
var lossyLayout = stream.Layout{RateBps: 400_000, PayloadBytes: 100, DataPerWindow: 20, ParityPerWindow: 4, Windows: 6}

// runLossyCluster runs a source and eleven peers over a bus that drops 15%
// of datagrams, on the flat route or the generic one. It returns every
// datagram sent, rendered with its instant, sender, destination, size and
// contents, and the peers' counters.
func runLossyCluster(t *testing.T, retry RetryPolicy, flat bool) ([]string, []Counters) {
	const n = 12
	cfg := testConfig()
	cfg.Retry = retry
	sched := &clock{}
	b := newBus(sched, 5*time.Millisecond)
	lossRng := rand.New(rand.NewSource(5))
	b.drop = func(_, _ wire.NodeID, _ wire.Message) bool { return lossRng.Float64() < 0.15 }
	src, err := stream.NewSource(lossyLayout, 1)
	if err != nil {
		t.Fatal(err)
	}
	var peers []*Peer
	for i := 0; i < n; i++ {
		id := wire.NodeID(i)
		fenv := &flatBusEnv{busEnv: busEnv{id: id, bus: b, rng: rand.New(rand.NewSource(int64(100 + i)))}}
		var env Env = &fenv.busEnv
		if flat {
			env = fenv
		}
		sampler := member.NewSparseView(id, n, fenv.rng)
		var p *Peer
		if i == 0 {
			p, err = NewSourcePeer(env, cfg, sampler, src)
		} else {
			p, err = NewPeer(env, cfg, sampler, lossyLayout)
		}
		if err != nil {
			t.Fatal(err)
		}
		fenv.peer = p
		b.peers[id] = p
		peers = append(peers, p)
	}
	for _, p := range peers {
		p.Start()
		if (p.flat != nil) != flat || (p.table != nil) != (!flat && !p.IsSource()) {
			t.Fatalf("peer on the flat route: %v, want %v; it holds a packet table: %v", p.flat != nil, flat, p.table != nil)
		}
	}
	sched.RunUntil(lossyLayout.Duration() + 2*time.Second)
	var log []string
	for _, e := range b.log {
		line := fmt.Sprintf("%v %d→%d %v %dB", e.at, e.from, e.to, e.msg.Kind(), e.msg.WireSize())
		switch m := e.msg.(type) {
		case wire.Propose:
			line += fmt.Sprint(m.IDs)
		case wire.Request:
			line += fmt.Sprint(m.IDs)
		case wire.Serve:
			for _, pkt := range m.Packets {
				line += fmt.Sprint(" ", pkt.ID)
			}
		}
		log = append(log, line)
	}
	var counters []Counters
	for _, p := range peers {
		counters = append(counters, p.Counters())
	}
	return log, counters
}

// sameTraffic fails t unless two runs of runLossyCluster, named a and b,
// sent the same datagrams and counted the same, and the run exercised
// retransmissions and multi-packet SERVEs.
func sameTraffic(t *testing.T, a, b string, logA, logB []string, countersA, countersB []Counters) {
	t.Helper()
	var retransmissions, multi int
	for _, c := range countersB {
		retransmissions += c.Retransmissions
		if c.PacketsServed > c.ServesSent {
			multi++
		}
	}
	if retransmissions == 0 || multi == 0 {
		t.Fatalf("%d retransmissions, %d peers sent a multi-packet SERVE: the cluster does not exercise the peers", retransmissions, multi)
	}
	if !slices.Equal(countersB, countersA) {
		t.Fatalf("counters %s %+v, %s %+v", b, countersB, a, countersA)
	}
	for i := range logA {
		if i >= len(logB) || logB[i] != logA[i] {
			t.Fatalf("datagram %d of %d: %s sent %q, %s %q", i, len(logA), a, logA[i], b, logB[min(i, len(logB)-1)])
		}
	}
	if len(logB) != len(logA) {
		t.Fatalf("%d datagrams %s, %d %s", len(logB), b, len(logA), a)
	}
}

// TestRoutesSendTheSameDatagrams runs one lossy cluster — enough loss that
// retransmissions fire, under both retry policies — over the generic route
// and over the flat one, and compares the complete traffic logs: every
// datagram, its contents, sender, destination and instant. The routes may
// differ in how a message is carried, never in what is sent or when.
func TestRoutesSendTheSameDatagrams(t *testing.T) {
	for name, retry := range map[string]RetryPolicy{"same-proposer": RetrySameProposer, "random-proposer": RetryRandomProposer} {
		t.Run(name, func(t *testing.T) {
			generic, genericCounters := runLossyCluster(t, retry, false)
			flat, flatCounters := runLossyCluster(t, retry, true)
			sameTraffic(t, "over the generic route", "over the flat route", generic, flat, genericCounters, flatCounters)
		})
	}
}

// TestTypedHandlersIgnoreWhatHandleMessageIgnores: a stopped peer and an
// id-list kind that is neither PROPOSE, REQUEST nor SERVE.
func TestTypedHandlersIgnoreWhatHandleMessageIgnores(t *testing.T) {
	layout := tinyLayout()
	fenv := &flatBusEnv{busEnv: busEnv{id: 1, bus: newBus(&clock{}, time.Millisecond), rng: rand.New(rand.NewSource(1))}}
	p, err := NewPeer(fenv, testConfig(), member.NewSparseView(1, 4, fenv.rng), layout)
	if err != nil {
		t.Fatal(err)
	}
	fenv.peer = p
	p.HandleIDs(2, wire.KindPropose, []stream.PacketID{0, 1})
	p.HandleIDs(2, wire.KindServe, []stream.PacketID{0})
	if len(fenv.bus.log) != 0 || p.Receiver().Has(0) {
		t.Fatal("a peer that was never started handled typed deliveries")
	}
	p.Start()
	p.HandleIDs(2, wire.KindFeedMe, []stream.PacketID{0, 1})
	if len(fenv.bus.log) != 0 || p.Receiver().Delivered() != 0 {
		t.Fatalf("an id list of kind FEED-ME made the peer act: sent %d, delivered %d", len(fenv.bus.log), p.Receiver().Delivered())
	}
	p.HandleIDs(2, wire.KindPropose, []stream.PacketID{0, 1})
	p.HandleIDs(2, wire.KindServe, []stream.PacketID{0})
	if len(fenv.bus.log) != 1 || fenv.bus.log[0].msg.Kind() != wire.KindRequest || !p.Receiver().Has(0) {
		t.Fatalf("a started peer did not request what was proposed or keep what was served: %+v", fenv.bus.log)
	}
}
