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

// TestRoutesSendTheSameDatagrams runs one lossy cluster — small payloads,
// so REQUESTs are answered by multi-packet SERVEs, and enough loss that
// retransmissions fire, under both retry policies — over the generic route
// and over the flat one, and compares the complete traffic logs: every
// datagram, its contents, sender, destination and instant. The routes may
// differ in how a message is carried, never in what is sent or when.
func TestRoutesSendTheSameDatagrams(t *testing.T) {
	layout := stream.Layout{RateBps: 400_000, PayloadBytes: 100, DataPerWindow: 20, ParityPerWindow: 4, Windows: 6}
	for name, retry := range map[string]RetryPolicy{"same-proposer": RetrySameProposer, "random-proposer": RetryRandomProposer} {
		t.Run(name, func(t *testing.T) {
			run := func(flat bool) ([]string, []Counters) {
				const n = 12
				cfg := testConfig()
				cfg.Retry = retry
				sched := &clock{}
				b := newBus(sched, 5*time.Millisecond)
				lossRng := rand.New(rand.NewSource(5))
				b.drop = func(_, _ wire.NodeID, _ wire.Message) bool { return lossRng.Float64() < 0.15 }
				src, err := stream.NewSource(layout, 1)
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
						p, err = NewPeer(env, cfg, sampler, layout)
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
				sched.RunUntil(layout.Duration() + 2*time.Second)
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
			generic, genericCounters := run(false)
			flat, flatCounters := run(true)
			var retransmissions, multi int
			for _, c := range flatCounters {
				retransmissions += c.Retransmissions
				if c.PacketsServed > c.ServesSent {
					multi++
				}
			}
			if retransmissions == 0 || multi == 0 {
				t.Fatalf("%d retransmissions, %d peers sent a multi-packet SERVE: the cluster does not exercise the routes", retransmissions, multi)
			}
			if !slices.Equal(flatCounters, genericCounters) {
				t.Fatalf("counters over the flat route %+v, over the generic one %+v", flatCounters, genericCounters)
			}
			for i := range generic {
				if i >= len(flat) || flat[i] != generic[i] {
					t.Fatalf("datagram %d of %d: generic route sent %q, flat route %q", i, len(generic), generic[i], flat[min(i, len(flat)-1)])
				}
			}
			if len(flat) != len(generic) {
				t.Fatalf("%d datagrams over the flat route, %d over the generic one", len(flat), len(generic))
			}
		})
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
