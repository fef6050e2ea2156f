package core

import (
	"math/rand"
	"testing"

	"gossipstream/internal/member"
	"gossipstream/internal/stream"
	"gossipstream/internal/wire"
)

// servesOf returns the packets of every SERVE on the bus's log.
func servesOf(b *bus) []*stream.Packet {
	var pkts []*stream.Packet
	for _, e := range b.log {
		if s, ok := e.msg.(wire.Serve); ok {
			pkts = append(pkts, s.Packets...)
		}
	}
	return pkts
}

// TestPeerServesOnlyWhatItWasDelivered pins getEvent on both routes: a
// peer does not serve an id the source has published but the peer has not
// been delivered, and once it has, it serves it — on the generic route the
// very packet it was delivered, on the flat one the id, charged as the
// packet of the layout's payload width. The source serves on the generic
// route the packets it builds on demand.
func TestPeerServesOnlyWhatItWasDelivered(t *testing.T) {
	layout := tinyLayout()
	src, err := stream.NewSource(layout, 1)
	if err != nil {
		t.Fatal(err)
	}
	src.PublishUntil(layout.Duration())
	for _, flat := range []bool{false, true} {
		b := newBus(&clock{}, 0)
		fenv := &flatBusEnv{busEnv: busEnv{id: 1, bus: b, rng: rand.New(rand.NewSource(1))}}
		var env Env = &fenv.busEnv
		if flat {
			env = fenv
		}
		p, err := NewPeer(env, testConfig(), member.NewSparseView(1, 4, fenv.rng), layout)
		if err != nil {
			t.Fatal(err)
		}
		fenv.peer = p
		p.Start()
		request := func() {
			if flat {
				p.HandleIDs(2, wire.KindRequest, []stream.PacketID{0, 1})
			} else {
				p.HandleMessage(2, wire.Request{IDs: []stream.PacketID{0, 1}})
			}
		}
		request()
		if got := servesOf(b); len(got) != 0 {
			t.Fatalf("flat=%v: the peer served %d packets it was never delivered", flat, len(got))
		}
		twin := *src.Packet(1) // same id and payload, another pointer
		if flat {
			p.HandleIDs(2, wire.KindServe, []stream.PacketID{1})
		} else {
			p.HandleMessage(2, wire.Serve{Packets: []*stream.Packet{&twin}})
		}
		request()
		got := servesOf(b)
		if len(got) != 1 || got[0].ID != 1 || len(got[0].Payload) != layout.PayloadBytes || !flat && got[0] != &twin {
			t.Fatalf("flat=%v: after delivery of id 1 the peer served %v, want exactly id 1 (the packet %p on the generic route)", flat, got, &twin)
		}
	}

	b := newBus(&clock{}, 0)
	env := &busEnv{id: 0, bus: b, rng: rand.New(rand.NewSource(1))}
	source, err := NewSourcePeer(env, testConfig(), member.NewSparseView(0, 4, env.rng), src)
	if err != nil {
		t.Fatal(err)
	}
	source.Start()
	source.recv.Deliver(1, 0) // as publishNew would have
	source.HandleMessage(2, wire.Request{IDs: []stream.PacketID{0, 1}})
	if got := servesOf(b); len(got) != 1 || got[0] != src.Packet(1) {
		t.Fatalf("the source served %v, want exactly its packet %p", got, src.Packet(1))
	}
}

// TestOutOfStreamIDsAreIgnored: SERVE, REQUEST and PROPOSE messages naming
// ids beyond the stream — which the wire codec does not range-check — change
// no counter and no delivery, send nothing and do not panic, on both
// routes, boxed and unboxed.
func TestOutOfStreamIDsAreIgnored(t *testing.T) {
	layout := tinyLayout()
	total := stream.PacketID(layout.TotalPackets())
	for _, flat := range []bool{false, true} {
		b := newBus(&clock{}, 0)
		fenv := &flatBusEnv{busEnv: busEnv{id: 1, bus: b, rng: rand.New(rand.NewSource(1))}}
		var env Env = &fenv.busEnv
		if flat {
			env = fenv
		}
		p, err := NewPeer(env, testConfig(), member.NewSparseView(1, 4, fenv.rng), layout)
		if err != nil {
			t.Fatal(err)
		}
		fenv.peer = p
		p.Start()
		for _, id := range []stream.PacketID{total, total + 5, 1 << 31} {
			ids := []stream.PacketID{id}
			pkts := []*stream.Packet{{ID: id, Payload: make([]byte, layout.PayloadBytes)}}
			p.HandleMessage(2, wire.Serve{Packets: pkts})
			p.HandleMessage(2, wire.Request{IDs: ids})
			p.HandleMessage(2, wire.Propose{IDs: ids})
			p.HandleIDs(2, wire.KindServe, ids)
			p.HandleIDs(2, wire.KindRequest, ids)
			p.HandleIDs(2, wire.KindPropose, ids)
		}
		if c := p.Counters(); c != (Counters{}) || p.Receiver().Delivered() != 0 || len(b.log) != 0 {
			t.Fatalf("flat=%v: out-of-stream ids moved counters %+v, delivered %d, sent %d messages",
				flat, c, p.Receiver().Delivered(), len(b.log))
		}
	}
}

// TestPrivateTableCountsBlocks: a peer NewPeer builds takes its blocks
// from its private table's pools as a peer on a shared table does, so the
// table's InUse counts them — known bits, receiver bits, window states and
// partner list from the start; the three batch buffers, headers, ids and
// (under RetryRandomProposer) proposer lists, from its first PROPOSE on —
// and a Reset onto another table gives every one of them back.
func TestPrivateTableCountsBlocks(t *testing.T) {
	layout := stream.DefaultLayout(2)
	cfg := DefaultConfig()
	cfg.Retry = RetryRandomProposer
	env := &stubEnv{rng: rand.New(rand.NewSource(1))}
	p, err := NewPeer(env, cfg, fixedSampler{2, 3}, layout)
	if err != nil {
		t.Fatal(err)
	}
	private := p.tab
	if _, _, blocks := private.InUse(); blocks != 4 {
		t.Fatalf("the private table counts %d blocks lent, want the peer's 4", blocks)
	}
	p.Start()
	p.HandleMessage(2, wire.Propose{IDs: []stream.PacketID{0, 1}})
	if ids, batches, blocks := private.InUse(); ids != 2 || batches != 1 || blocks != 7 {
		t.Fatalf("after a PROPOSE the private table counts %d ids, %d batches and %d blocks lent, want 2, 1 and the peer's 7", ids, batches, blocks)
	}
	shared := NewTable()
	if err := p.Reset(shared, env, cfg, fixedSampler{2, 3}, layout); err != nil {
		t.Fatal(err)
	}
	if ids, batches, blocks := private.InUse(); ids != 0 || batches != 0 || blocks != 0 {
		t.Fatalf("%d ids, %d batches and %d blocks still lent by the private table after the peer moved off it", ids, batches, blocks)
	}
	if _, _, blocks := shared.InUse(); blocks != 4 {
		t.Fatalf("the shared table counts %d blocks lent, want the peer's 4", blocks)
	}
}
