package core

import (
	"encoding/binary"
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

// FuzzRequestIndex drives the request index with puts, gets and deletes
// against a map. Each input byte is one operation on one id: 0xff takes an
// arbitrary id from the next four bytes, any other byte one of a pool of
// ids whose home is among the last four slots of the first table, so probe
// runs are long and wrap around. An id held is deleted, one not held is put
// — or, when the byte's top bit is set, deleted while absent — so the
// index grows and shrinks with the ids it holds.
func FuzzRequestIndex(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0x80, 0x81, 2, 5, 7, 0x8c})
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10\x11\x12\x13\x14\x15\x16\x17\x18\x19\x1a\x1b\x1c\x1d\x1e\x1f\x20\x21\x22\x23\x01\x03\x05\x07\x09"))
	f.Add([]byte{0xff, 1, 2, 3, 4, 0xff, 0xfe, 0xff, 0xff, 0xff, 0, 1, 0xff, 1, 2, 3, 4})
	probe := newReqIndex(make([]uint64, initialIndexSlots))
	var clustered []stream.PacketID
	for id := stream.PacketID(0); len(clustered) < 48; id++ {
		if probe.home(id) >= initialIndexSlots-4 {
			clustered = append(clustered, id)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		x := newReqIndex(make([]uint64, initialIndexSlots))
		want := map[stream.PacketID]uint32{}
		next := uint32(0)
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			id := clustered[int(op&0x7f)%len(clustered)]
			if op == 0xff {
				var raw [4]byte
				data = data[copy(raw[:], data):]
				if id = stream.PacketID(binary.LittleEndian.Uint32(raw[:])); id == ^stream.PacketID(0) {
					continue // the one id the index cannot key
				}
			}
			if _, held := want[id]; held || op&0x80 != 0 && op != 0xff {
				x.del(id)
				delete(want, id)
			} else {
				next++
				x.put(id, next)
				want[id] = next
			}
			if got := x.get(id); got != want[id] {
				t.Fatalf("after op %#x on id %d: get = %d, want %d", op, id, got, want[id])
			}
		}
		occupied := 0
		for _, s := range x.slots {
			if s != 0 {
				occupied++
			}
		}
		if occupied != len(want) || x.n != len(want) || 2*x.n > len(x.slots) {
			t.Fatalf("%d slots of %d occupied, count %d, want %d ids", occupied, len(x.slots), x.n, len(want))
		}
		for id, ri := range want {
			if got := x.get(id); got != ri {
				t.Fatalf("get(%d) = %d, want %d", id, got, ri)
			}
		}
		for _, id := range clustered {
			if _, held := want[id]; !held && x.get(id) != 0 {
				t.Fatalf("get(%d) finds a record for an id not held", id)
			}
		}
	})
}
