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
// typed sends are logged as the message they stand for and delivered
// through the typed entry points, in a slice that is cleared once the
// handler returns — a peer that kept it would read zeroes.
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

func (e *flatBusEnv) SendPackets(to wire.NodeID, pkts []*stream.Packet) {
	own := slices.Clone(pkts)
	e.deliver(to, wire.Serve{Packets: slices.Clone(pkts)}, func(p *Peer) {
		p.HandlePackets(e.id, own)
		clear(own)
	})
}

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
// of datagrams, on the flat route or the generic one, the peers serving
// from the source's packet table (shared, NewPeerOf) or from their own
// (NewPeer). It returns every datagram sent, rendered with its instant,
// sender, destination and contents, and the peers' counters.
func runLossyCluster(t *testing.T, retry RetryPolicy, flat, shared bool) ([]string, []Counters) {
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
		switch {
		case i == 0:
			p, err = NewSourcePeer(env, cfg, sampler, src)
		case shared:
			p, err = NewPeerOf(env, cfg, sampler, src)
		default:
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
		if (p.flat != nil) != flat {
			t.Fatalf("peer on the flat route: %v, want %v", p.flat != nil, flat)
		}
	}
	sched.RunUntil(lossyLayout.Duration() + 2*time.Second)
	var log []string
	for _, e := range b.log {
		line := fmt.Sprintf("%v %d→%d %v", e.at, e.from, e.to, e.msg.Kind())
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
			generic, genericCounters := runLossyCluster(t, retry, false, false)
			flat, flatCounters := runLossyCluster(t, retry, true, false)
			sameTraffic(t, "over the generic route", "over the flat route", generic, flat, genericCounters, flatCounters)
		})
	}
}

// TestSharedTablesSendTheSameDatagrams runs the lossy cluster with private
// packet tables and with the source's one shared table, on both routes:
// where a peer finds the packets it serves must not change what it sends.
func TestSharedTablesSendTheSameDatagrams(t *testing.T) {
	for name, retry := range map[string]RetryPolicy{"same-proposer": RetrySameProposer, "random-proposer": RetryRandomProposer} {
		for _, flat := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/flat=%v", name, flat), func(t *testing.T) {
				private, privateCounters := runLossyCluster(t, retry, flat, false)
				shared, sharedCounters := runLossyCluster(t, retry, flat, true)
				sameTraffic(t, "from private tables", "from the shared table", private, shared, privateCounters, sharedCounters)
			})
		}
	}
}

// TestTypedHandlersIgnoreWhatHandleMessageIgnores: a stopped peer and an
// id-list kind that is neither PROPOSE nor REQUEST.
func TestTypedHandlersIgnoreWhatHandleMessageIgnores(t *testing.T) {
	layout := tinyLayout()
	fenv := &flatBusEnv{busEnv: busEnv{id: 1, bus: newBus(&clock{}, time.Millisecond), rng: rand.New(rand.NewSource(1))}}
	p, err := NewPeer(fenv, testConfig(), member.NewSparseView(1, 4, fenv.rng), layout)
	if err != nil {
		t.Fatal(err)
	}
	fenv.peer = p
	pkt := &stream.Packet{ID: 0, Payload: make([]byte, layout.PayloadBytes)}
	p.HandleIDs(2, wire.KindPropose, []stream.PacketID{0, 1})
	p.HandlePackets(2, []*stream.Packet{pkt})
	if len(fenv.bus.log) != 0 || p.Receiver().Has(0) {
		t.Fatal("a peer that was never started handled typed deliveries")
	}
	p.Start()
	p.HandleIDs(2, wire.KindServe, []stream.PacketID{0, 1})
	if len(fenv.bus.log) != 0 {
		t.Fatalf("an id list of kind SERVE made the peer send %v", fenv.bus.log[0].msg)
	}
	p.HandleIDs(2, wire.KindPropose, []stream.PacketID{0, 1})
	p.HandlePackets(2, []*stream.Packet{pkt})
	if len(fenv.bus.log) != 1 || fenv.bus.log[0].msg.Kind() != wire.KindRequest || !p.Receiver().Has(0) {
		t.Fatalf("a started peer did not request what was proposed or keep what was served: %+v", fenv.bus.log)
	}
}
