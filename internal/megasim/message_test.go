package megasim

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"gossipstream/internal/member"
	"gossipstream/internal/shaping"
	"gossipstream/internal/simnet"
	"gossipstream/internal/stream"
	"gossipstream/internal/wire"
)

// TestEventRecordIsPointerFree pins what makes the pending set noscan
// memory: no field of event, at any depth, is a pointer, and the record
// stays within 48 bytes.
func TestEventRecordIsPointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		default:
			t.Errorf("%s is a %v: the collector would scan every pending event for it", path, typ.Kind())
		}
	}
	walk("event", reflect.TypeOf(event{}))
	if size := unsafe.Sizeof(event{}); size > 48 {
		t.Errorf("event is %d bytes, want at most 48", size)
	}
}

// TestEventRecordSize pins the event at exactly 32 bytes: two records to
// a cache line and 32 to a queue chunk, with the size of the one-id
// message an evDeliverID carries in the record's last two bytes.
func TestEventRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size != 32 {
		t.Errorf("event is %d bytes, want 32", size)
	}
	if off := unsafe.Offsetof(event{}.size); off != 30 {
		t.Errorf("event.size is at byte %d, want 30: the last two bytes", off)
	}
}

// TestMessageRecordSize pins the in-flight records to one cache line: a
// message record is 64 bytes. A message that crosses shards inside a
// window and shares its record with no other send takes an event and a
// record in its outbox, at most 96 bytes; a one-id message takes its event
// alone, and a fan-out one event per send and one record. A list that does
// not fit inline spills into the arenas.
func TestMessageRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(msgRec{}); size != 64 {
		t.Errorf("msgRec is %d bytes, want 64", size)
	}
	if size := unsafe.Sizeof(outbox{}.events[0]) + unsafe.Sizeof(outbox{}.recs[0]); size > 96 {
		t.Errorf("an unshared message in an outbox takes %d bytes, want at most 96", size)
	}
	if top := spillLen(wire.MaxIDsPerMessage); top < wire.MaxIDsPerMessage || 4*top > 1<<spillShift {
		t.Errorf("a full PROPOSE (%d ids) spills into a block of %d, which a spill chunk of %d should carve", wire.MaxIDsPerMessage, top, 1<<spillShift)
	}
}

// hugeWidth is a packet payload that makes even a one-id SERVE too large
// for the size an event can carry.
const hugeWidth = 70_000

// recordShapes are messages at every edge of the record's layout: one id,
// which rides in its event, and the inline limit — seven ids, where it
// was, and nine — and the spill classes' edges of id lists up to a full
// PROPOSE, SERVEs of ids up to the most packets one datagram carries, a
// one-id SERVE too large for its event, and empty and boxed messages.
func recordShapes() []payload {
	ids := make([]stream.PacketID, wire.MaxIDsPerMessage+1)
	for i := range ids {
		ids[i] = stream.PacketID(100 + i)
	}
	full, _ := wire.CutServeIDs(ids, 0) // empty payloads: as many as one SERVE carries
	var shapes []payload
	for _, n := range []int{1, 7, 8, inlineIDs, inlineIDs + 1, 16, 17, 63, 64, 65, wire.MaxIDsPerMessage} {
		shapes = append(shapes, payload{kind: wire.KindPropose, ids: ids[n%5:][:n]}, payload{kind: wire.KindRequest, ids: ids[:n]})
	}
	for _, n := range []int{1, 2, 8, inlineIDs, inlineIDs + 1, len(full)} {
		shapes = append(shapes, payload{kind: wire.KindServe, width: 1316, ids: full[n%3:][:n]})
	}
	pkt := &stream.Packet{ID: 7, Payload: make([]byte, 100)}
	return append(shapes, payload{kind: wire.KindServe, width: hugeWidth, ids: ids[3:4]},
		payload{kind: wire.KindPropose}, payload{kind: wire.KindServe},
		payload{kind: wire.KindFeedMe, other: wire.FeedMe{}},
		payload{kind: wire.KindServe, other: wire.Serve{Packets: []*stream.Packet{pkt, pkt}}})
}

// checkArenaDrained verifies that a shard with nothing in flight has every
// slab record and every arena range on a free list, and that no free
// record references a message.
func checkArenaDrained(t *testing.T, s *shard) {
	t.Helper()
	if s.msgFree.Len() != s.msgs.Len() {
		t.Fatalf("shard %d: %d of %d slab records are free with nothing in flight", s.id, s.msgFree.Len(), s.msgs.Len())
	}
	for i := range s.msgs.Len() {
		if r := s.msgs.At(i); r.other != nil || r.refs != 0 {
			t.Fatalf("shard %d: free slab record %d still references a message or is named by %d deliveries", s.id, i, r.refs)
		}
	}
	if lent := s.ids.Lent(); lent != 0 {
		t.Fatalf("shard %d: %d spill blocks lent with nothing in flight", s.id, lent)
	}
}

// sendShape sends p from v to to: a boxed message as it was boxed, a SERVE
// of ids through SendServe, any other list through SendIDs.
func sendShape(v *NodeEnv, to NodeID, p payload) {
	switch {
	case p.other != nil:
		v.Send(to, p.other)
	case p.kind == wire.KindServe:
		v.SendServe(to, p.ids, int(p.width))
	default:
		v.SendIDs(to, p.kind, p.ids)
	}
}

// deliveredAs is what a typedKept notes when p, sent by node 0 through
// sendShape, is delivered to it: a PROPOSE or REQUEST comes through
// HandleIDs, boxed or not, and so does a SERVE of ids; a boxed SERVE
// arrives as its packets, anything else boxed as its kind.
func deliveredAs(p payload) string {
	switch m := p.other.(type) {
	case nil:
	case wire.Propose:
		return fmt.Sprintf("typed %v from 0 ids %v packets []", p.kind, m.IDs)
	case wire.Request:
		return fmt.Sprintf("typed %v from 0 ids %v packets []", p.kind, m.IDs)
	case wire.Serve:
		var pids []stream.PacketID
		for _, pkt := range m.Packets {
			pids = append(pids, pkt.ID)
		}
		return fmt.Sprintf("boxed %v from 0 ids [] packets %v", p.kind, pids)
	default:
		return fmt.Sprintf("boxed %v from 0 ids [] packets []", p.kind)
	}
	return fmt.Sprintf("typed %v from 0 ids %v packets []", p.kind, p.ids)
}

// roundTrip sends the shapes from node 0 to node 1, a typedKept — on one
// shard, or from shard 0 to shard 1 — one in the window after a barrier of
// its own, 10 ms apart over a 1 ms network, so the slab records and arena
// ranges of one are reused by the next. Sent inside a window, a shape bound
// for the other shard waits in an outbox, its list, if it spills, in the
// outbox's region, until the window ends. At each barrier the previous
// shape must have arrived as it was sent, counted sent and received once at
// its size, with every record and range free again. It returns how many
// slab records each shape held on the destination shard while it was in
// flight.
func roundTrip(t *testing.T, shards int, shapes []payload) (records []int) {
	t.Helper()
	e, err := New(Config{Shards: shards, Net: flatNet(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	sender := e.NodeEnv(0, NewRand(1))
	e.AddNode(&kept{}, shaping.Unlimited, 0)
	recv := &typedKept{kept{typed: true}}
	e.AddNode(recv, shaping.Unlimited, 0)
	dst := e.shards[1%shards]
	// What each shape must arrive as, and its size, taken before it is
	// sent: a boxed SERVE that wire.SplitServeInto cut goes back to wire's
	// pool, cleared, once delivered.
	want, sizes := make([]string, len(shapes)), make([]uint64, len(shapes))
	for i, p := range shapes {
		want[i], sizes[i] = deliveredAs(p), uint64(p.wireSize()-wire.UDPOverheadBytes)
	}
	var sent, got simnet.Stats
	arrived := func(i int) {
		t.Helper()
		p, k, size := shapes[i], shapes[i].kind, sizes[i]
		if len(recv.got) != i+1 || recv.got[i] != want[i] {
			t.Fatalf("shape %d (%+v): delivered %q, want %q last", i, p, recv.got, want[i])
		}
		s, r := e.NodeStats(0), e.NodeStats(1)
		if s.SentMsgs[k]-sent.SentMsgs[k] != 1 || s.SentBytes[k]-sent.SentBytes[k] != size ||
			r.RecvMsgs[k]-got.RecvMsgs[k] != 1 || r.RecvBytes[k]-got.RecvBytes[k] != size {
			t.Fatalf("shape %d (%+v): sent %d at %d bytes, received %d at %d bytes; want each once at %d",
				i, p, s.SentMsgs[k]-sent.SentMsgs[k], s.SentBytes[k]-sent.SentBytes[k],
				r.RecvMsgs[k]-got.RecvMsgs[k], r.RecvBytes[k]-got.RecvBytes[k], size)
		}
		for _, s := range e.shards {
			checkArenaDrained(t, s)
		}
	}
	for i, p := range shapes {
		at := time.Duration(i) * 10 * time.Millisecond
		e.AtBarrier(at, func() {
			if i > 0 {
				arrived(i - 1)
			}
			sent, got = e.NodeStats(0), e.NodeStats(1)
			sender.After(0, func() {
				sendShape(sender, 1, p)
				if shards > 1 {
					checkInOutbox(t, &e.shards[0].outbox[1], 1)
				}
			})
		})
		// The window has ended, the outbox has been merged, and the message
		// is on its way.
		e.AtBarrier(at+time.Microsecond, func() {
			records = append(records, dst.msgs.Len()-dst.msgFree.Len())
		})
	}
	if err := e.Run(time.Duration(len(shapes)) * 10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	arrived(len(shapes) - 1)
	for _, s := range e.shards {
		if s.msgs.Len() > 1 {
			t.Fatalf("shard %d: %d slab records for one message at a time: records are not reused", s.id, s.msgs.Len())
		}
	}
	if l := e.ShardLoads(); shards > 1 && (l[0].OutboxOut != uint64(len(shapes)) || l[1].OutboxIn != uint64(len(shapes))) {
		t.Fatalf("%d shapes sent across shards, %d handed to an outbox and %d merged from one", len(shapes), l[0].OutboxOut, l[1].OutboxIn)
	}
	return records
}

// checkInOutbox checks, from the sending shard inside a window, that the
// outbox holds the n messages last sent through it, and its region exactly
// their spilled lists.
func checkInOutbox(t *testing.T, ob *outbox, n int) {
	t.Helper()
	if len(ob.events) != n {
		t.Fatalf("%d messages in the outbox, want %d", len(ob.events), n)
	}
	spilled := 0
	for i := range ob.recs {
		if r := &ob.recs[i]; r.spilled() {
			spilled += int(r.n)
		}
	}
	if len(ob.ids) != spilled {
		t.Fatalf("the outbox's region holds %d ids, its records spilled %d", len(ob.ids), spilled)
	}
}

// allAtOnce sends every shape from node 0 to node 1, a typedKept, in one
// go from inside the first window — on one shard, or from shard 0 to
// shard 1 — so that the lists of every spill class are live together, in
// the spill pool and, across shards, first in the outbox's region. Each
// shape holds the slab records roundTrip counted for it, all at once; they
// must arrive in order as sent and leave every slab record and spill block
// free.
func allAtOnce(t *testing.T, shards int, shapes []payload, records []int) {
	t.Helper()
	e, err := New(Config{Shards: shards, Net: flatNet(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	sender := e.NodeEnv(0, NewRand(1))
	e.AddNode(&kept{}, shaping.Unlimited, 0)
	recv := &typedKept{kept{typed: true}}
	e.AddNode(recv, shaping.Unlimited, 0)
	var want []string
	sender.After(0, func() {
		for _, p := range shapes {
			sendShape(sender, 1, p)
			want = append(want, deliveredAs(p))
		}
		if shards > 1 {
			ob := &e.shards[0].outbox[1]
			if len(ob.ids) == 0 {
				t.Fatal("no list spilled into the outbox's region")
			}
			checkInOutbox(t, ob, len(shapes))
		}
	})
	dst := e.shards[1%shards]
	held := 0
	for _, n := range records {
		held += n
	}
	e.AtBarrier(time.Microsecond, func() {
		if got := dst.msgs.Len() - dst.msgFree.Len(); got != held {
			t.Fatalf("%d slab records in flight with every shape sent, want %d", got, held)
		}
	})
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(recv.got, want) {
		t.Fatalf("delivered\n%q\nwant\n%q", recv.got, want)
	}
	for _, s := range e.shards {
		checkArenaDrained(t, s)
	}
}

// slabRecords is how many slab records a message held in flight: none
// when it rides in its event, else one.
func slabRecords(inEvent bool) int {
	if inEvent {
		return 0
	}
	return 1
}

// TestMessageRecordRoundTrip delivers every shape of recordShapes, one at
// a time, on one shard and across two (sent inside a window, through the
// outbox's records and regions), to a recording handler: each must arrive
// with its kind and ids, charged to RecvBytes at its size, and leave every
// slab record and arena range free. A one-id PROPOSE, REQUEST or SERVE rides in its event and
// takes no slab record; every other shape takes one, the one-id SERVE too
// large for its event included. Then it sends them all at once
// (allAtOnce), so that lists of every spill class are live together. Boxed
// back, a message costs what its payload says on the wire.
func TestMessageRecordRoundTrip(t *testing.T) {
	shapes := recordShapes()
	for i, p := range shapes {
		if p.kind == wire.KindServe && p.other == nil {
			// A SERVE of ids has no boxed form; its size is ServeSize's.
			if got, want := p.wireSize(), wire.ServeSize(len(p.ids), int(p.width)); got != want {
				t.Fatalf("shape %d: a SERVE of %d ids costs %d bytes on the wire, want %d", i, len(p.ids), got, want)
			}
		} else if got, want := p.message().WireSize(), p.wireSize(); got != want {
			t.Fatalf("shape %d: boxed back the message costs %d bytes on the wire, the payload %d", i, got, want)
		}
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d-shards", shards), func(t *testing.T) {
			records := roundTrip(t, shards, shapes)
			var inEvent []wire.Kind
			for i, p := range shapes {
				carried := p.other == nil && len(p.ids) == 1 && p.width != hugeWidth
				if records[i] != slabRecords(carried) {
					t.Fatalf("shape %d (%v of %d ids, width %d): %d slab records in flight, want %d", i, p.kind, len(p.ids), p.width, records[i], slabRecords(carried))
				}
				if carried {
					inEvent = append(inEvent, p.kind)
				}
			}
			if want := []wire.Kind{wire.KindPropose, wire.KindRequest, wire.KindServe}; !slices.Equal(inEvent, want) {
				t.Fatalf("the shapes carried in their event were %v, want %v", inEvent, want)
			}
			allAtOnce(t, shards, shapes, records)
		})
	}
}

// FuzzMessageRoundTrip sends one message of an arbitrary kind (PROPOSE,
// REQUEST, SERVE or FEED-ME), id count and payload width, boxed or typed,
// on one shard or across two: it must arrive as sent, be counted sent and
// received once at its size, and leave the slab and arenas drained. It
// rides in its event exactly when it is one id, not a boxed SERVE, and at
// most 65,535 application bytes. A boxed SERVE the test built is the
// test's: it arrives, and stays, intact.
//
// With fan above one, the message goes out as fan equal sends instead, to
// partners the bits of partners pick among six nodes — one shard, or three
// when cross is set — and the records in flight must be the distinct
// (list, destination shard) pairs (fanOutTrip).
func FuzzMessageRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint16(1), uint32(0), false, false, uint8(1), uint32(0))
	f.Add(uint8(1), uint16(inlineIDs+1), uint32(0), true, true, uint8(1), uint32(0))
	f.Add(uint8(2), uint16(1), uint32(1316), false, true, uint8(1), uint32(0))
	f.Add(uint8(2), uint16(1), uint32(hugeWidth), false, false, uint8(1), uint32(0))
	f.Add(uint8(2), uint16(3), uint32(100), true, true, uint8(1), uint32(0))
	f.Add(uint8(3), uint16(0), uint32(0), true, false, uint8(1), uint32(0))
	// A boxed SERVE of as many packets as a pooled backing holds, built by
	// the test: it is the test's, not wire's pool's, and survives delivery.
	f.Add(uint8(2), uint16(244), uint32(139), true, true, uint8(1), uint32(0))
	// Fan-outs: a PROPOSE to seven partners as a gossip round sends it,
	// spilled and inline, typed and boxed, on one shard and across three; a
	// REQUEST and a SERVE of ids sent twice to one partner; one-id and boxed
	// messages, which share nothing.
	f.Add(uint8(0), uint16(40), uint32(0), false, true, uint8(7), uint32(0o1234560))
	f.Add(uint8(0), uint16(inlineIDs), uint32(0), true, false, uint8(7), uint32(0o6543210))
	f.Add(uint8(0), uint16(wire.MaxIDsPerMessage), uint32(0), false, false, uint8(7), uint32(0o1234560))
	f.Add(uint8(1), uint16(inlineIDs+1), uint32(0), true, true, uint8(2), uint32(0o33))
	f.Add(uint8(2), uint16(5), uint32(1316), false, true, uint8(2), uint32(0o44))
	f.Add(uint8(0), uint16(1), uint32(0), false, true, uint8(5), uint32(0o12345))
	f.Add(uint8(2), uint16(3), uint32(100), true, true, uint8(3), uint32(0o123))
	f.Add(uint8(3), uint16(0), uint32(0), true, true, uint8(4), uint32(0o1111))
	f.Fuzz(func(t *testing.T, kind uint8, n uint16, width uint32, boxed, cross bool, fan uint8, partners uint32) {
		ids := make([]stream.PacketID, int(n)%(wire.MaxIDsPerMessage+1))
		for i := range ids {
			ids[i] = stream.PacketID(uint32(n)*7919 + uint32(i)*104729)
		}
		w := int(width % (1 << 17))
		var p payload
		var pkts []*stream.Packet
		switch kind % 4 {
		case 0:
			p = payload{kind: wire.KindPropose, ids: ids}
			if boxed {
				p.other = wire.Propose{IDs: ids}
			}
		case 1:
			p = payload{kind: wire.KindRequest, ids: ids}
			if boxed {
				p.other = wire.Request{IDs: ids}
			}
		case 2:
			p = payload{kind: wire.KindServe, width: int32(w), ids: ids}
			if boxed {
				bytes := make([]byte, w) // shared: only its length counts
				pkts = make([]*stream.Packet, len(ids))
				for i, id := range ids {
					pkts[i] = &stream.Packet{ID: id, Payload: bytes}
				}
				p = payload{kind: wire.KindServe, other: wire.Serve{Packets: pkts}}
			}
		default:
			p = payload{kind: wire.KindFeedMe, other: wire.FeedMe{}}
		}
		_, boxedServe := p.other.(wire.Serve)
		carried := len(ids) == 1 && kind%4 != 3 && !boxedServe && p.wireSize()-wire.UDPOverheadBytes <= math.MaxUint16
		if k := int(fan % 9); k > 1 {
			to := make([]NodeID, k)
			for i := range to {
				to[i] = NodeID(1 + (partners>>(3*i)&7)%fanPartners)
			}
			shards := 1
			if cross {
				shards = 3
			}
			fanOutTrip(t, shards, p, to, carried)
		} else {
			shards := 1
			if cross {
				shards = 2
			}
			records := roundTrip(t, shards, []payload{p})
			if records[0] != slabRecords(carried) {
				t.Fatalf("%v of %d ids (boxed %v, width %d): %d slab records in flight, want %d", p.kind, len(ids), boxed, w, records[0], slabRecords(carried))
			}
		}
		if i := slices.Index(pkts, nil); i >= 0 {
			t.Fatalf("the test's boxed SERVE of %d packets lost packet %d on delivery: its backing was taken for a pooled one", len(pkts), i)
		}
	})
}

// kept records, in order, everything a node is delivered — over the typed
// entry points when typed is set (the handler is then a TimerHandler),
// boxed otherwise — copying the lists, which are the engine's.
type kept struct {
	typed bool
	got   []string
}

func (k *kept) note(route string, from NodeID, kind wire.Kind, ids []stream.PacketID, pkts []*stream.Packet) {
	var pids []stream.PacketID
	for _, p := range pkts {
		pids = append(pids, p.ID)
	}
	k.got = append(k.got, fmt.Sprintf("%s %v from %d ids %v packets %v", route, kind, from, ids, pids))
}

func (k *kept) HandleMessage(from NodeID, msg wire.Message) {
	switch m := msg.(type) {
	case wire.Propose:
		k.note("boxed", from, m.Kind(), m.IDs, nil)
	case wire.Request:
		k.note("boxed", from, m.Kind(), m.IDs, nil)
	case wire.Serve:
		k.note("boxed", from, m.Kind(), nil, m.Packets)
	default:
		k.note("boxed", from, m.Kind(), nil, nil)
	}
}

// typedKept is kept as a TimerHandler.
type typedKept struct{ kept }

func (k *typedKept) OnTimer(uint8, uint32) {}
func (k *typedKept) HandleIDs(from NodeID, kind wire.Kind, ids []stream.PacketID) {
	k.note("typed", from, kind, ids, nil)
}

// TestSendRoutesDeliverAlike sends the same messages typed and boxed, to a
// typed and to a boxed handler, on the sender's shard and across: whatever
// the pairing, the receiver sees the same contents in the same order at the
// same cost on the wire. The receiver's kind decides how a PROPOSE or
// REQUEST is handed over; a SERVE arrives as it was sent — the ids of its
// packets, which only a typed handler is sent, or the boxed packets.
func TestSendRoutesDeliverAlike(t *testing.T) {
	const width = 10
	ids := make([]stream.PacketID, 2*inlineIDs)
	pkts := make([]*stream.Packet, 3)
	for i := range ids {
		ids[i] = stream.PacketID(7 * i)
	}
	for i := range pkts {
		pkts[i] = &stream.Packet{ID: stream.PacketID(i), Payload: make([]byte, width)}
	}
	pktIDs := []stream.PacketID{0, 1, 2}
	run := func(t *testing.T, typedSend bool) (*Engine, []*kept) {
		e, err := New(Config{Shards: 2, Net: flatNet(time.Millisecond)})
		if err != nil {
			t.Fatal(err)
		}
		// Node 0 sends; 1 (other shard) and 2 (same shard) receive typed,
		// 3 and 4 boxed.
		sender := e.NodeEnv(0, NewRand(1))
		e.AddNode(&kept{}, shaping.Unlimited, 0)
		var recv []*kept
		for i := 1; i <= 4; i++ {
			if i <= 2 {
				h := &typedKept{kept{typed: true}}
				recv = append(recv, &h.kept)
				e.AddNode(h, shaping.Unlimited, 0)
			} else {
				h := &kept{}
				recv = append(recv, h)
				e.AddNode(h, shaping.Unlimited, 0)
			}
		}
		for to := NodeID(1); to <= 4; to++ {
			if typedSend {
				sender.SendIDs(to, wire.KindPropose, ids)
				sender.SendIDs(to, wire.KindRequest, ids[:2])
				if to <= 2 {
					sender.SendServe(to, pktIDs[:1], width)
					sender.SendServe(to, pktIDs, width)
				} else {
					sender.Send(to, wire.Serve{Packets: pkts[:1]})
					sender.Send(to, wire.SplitServeInto(nil, pkts)[0])
				}
			} else {
				sender.Send(to, wire.Propose{IDs: ids})
				sender.Send(to, wire.Request{IDs: ids[:2]})
				sender.Send(to, wire.Serve{Packets: pkts[:1]})
				sender.Send(to, wire.SplitServeInto(nil, pkts)[0])
			}
			sender.Send(to, wire.FeedMe{})
		}
		if err := e.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		return e, recv
	}
	typedEng, typedRecv := run(t, true)
	boxedEng, boxedRecv := run(t, false)
	if got, want := typedEng.TotalStats(), boxedEng.TotalStats(); got != want {
		t.Fatalf("traffic of typed sends %+v, of boxed sends %+v", got, want)
	}
	for i, recv := range [][]*kept{typedRecv, boxedRecv} {
		for j, k := range recv {
			route, serve := "boxed", "boxed SERVE from 0 ids [] packets %v"
			if k.typed {
				route = "typed"
				if i == 0 {
					serve = "typed SERVE from 0 ids %v packets []"
				}
			}
			want := []string{
				fmt.Sprintf("%s PROPOSE from 0 ids %v packets []", route, ids),
				fmt.Sprintf("%s REQUEST from 0 ids %v packets []", route, ids[:2]),
				fmt.Sprintf(serve, pktIDs[:1]),
				fmt.Sprintf(serve, pktIDs),
				"boxed FEED-ME from 0 ids [] packets []",
			}
			if !slices.Equal(k.got, want) {
				t.Fatalf("typed sends %v: node %d was delivered %q, want %q", i == 0, j+1, k.got, want)
			}
		}
	}
}

// TestServeOfIDsCostsItsPackets: for the paper's 1316-byte payloads, one
// to a datagram, and for 100-byte ones, which pack several, a SERVE of n
// ids — n from one to the most one datagram carries — is charged at the
// uplink and counted sent and received exactly as the boxed SERVE of the
// same packets, on the sender's shard and across, and is delivered as the
// same ids.
func TestServeOfIDsCostsItsPackets(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, width := range []int{1316, 100} {
			t.Run(fmt.Sprintf("%d-shards/%dB", shards, width), func(t *testing.T) {
				all := make([]stream.PacketID, wire.MaxIDsPerMessage)
				pkts := make([]*stream.Packet, len(all))
				for i := range all {
					all[i] = stream.PacketID(i)
					pkts[i] = &stream.Packet{ID: all[i], Payload: make([]byte, width)}
				}
				most, _ := wire.CutServeIDs(all, width)
				if width == 100 && len(most) < 10 {
					t.Fatalf("%d packets of %d B fill a datagram: the run does not spill a SERVE", len(most), width)
				}
				run := func(typed bool) (sent, recv simnet.Stats, got []string) {
					e, err := New(Config{Shards: shards, Net: flatNet(time.Millisecond)})
					if err != nil {
						t.Fatal(err)
					}
					sender := e.NodeEnv(0, NewRand(1))
					e.AddNode(&kept{}, shaping.Unlimited, 0)
					h := &typedKept{kept{typed: true}}
					e.AddNode(h, shaping.Unlimited, 0)
					for n := 1; n <= len(most); n++ {
						if typed {
							sender.SendServe(1, all[:n], width)
						} else {
							sender.Send(1, wire.Serve{Packets: pkts[:n]})
						}
					}
					if err := e.Run(time.Second); err != nil {
						t.Fatal(err)
					}
					for _, s := range e.shards {
						checkArenaDrained(t, s)
					}
					return e.NodeStats(0), e.NodeStats(1), h.got
				}
				typedSent, typedRecv, typedGot := run(true)
				boxedSent, boxedRecv, boxedGot := run(false)
				if typedSent != boxedSent || typedRecv != boxedRecv {
					t.Fatalf("SERVEs of ids: sender %+v, receiver %+v; boxed SERVEs: sender %+v, receiver %+v", typedSent, typedRecv, boxedSent, boxedRecv)
				}
				bytes := 0
				for n := 1; n <= len(most); n++ {
					bytes += wire.ServeSize(n, width) - wire.UDPOverheadBytes
					if want := fmt.Sprintf("typed SERVE from 0 ids %v packets []", all[:n]); typedGot[n-1] != want {
						t.Fatalf("a SERVE of %d ids was delivered as %q", n, typedGot[n-1])
					}
					if want := fmt.Sprintf("boxed SERVE from 0 ids [] packets %v", all[:n]); boxedGot[n-1] != want {
						t.Fatalf("a boxed SERVE of %d packets was delivered as %q", n, boxedGot[n-1])
					}
				}
				if typedSent.SentBytes[wire.KindServe] != uint64(bytes) || typedRecv.RecvMsgs[wire.KindServe] != uint64(len(most)) {
					t.Fatalf("%d SERVEs charged %d bytes and %d received, want %d bytes", len(most), typedSent.SentBytes[wire.KindServe], typedRecv.RecvMsgs[wire.KindServe], bytes)
				}
			})
		}
	}
}

// sinkTyped is a TimerHandler that keeps nothing.
type sinkTyped struct{}

func (sinkTyped) HandleMessage(NodeID, wire.Message)             {}
func (sinkTyped) OnTimer(uint8, uint32)                          {}
func (sinkTyped) HandleIDs(NodeID, wire.Kind, []stream.PacketID) {}

// TestMessageRecordsNeverPinPackets is the engine-side sibling of wire's
// TestRecycleServeNeverPinsPackets. Boxed SERVEs of one and of several
// packets, and SERVEs of their ids to typed handlers, are sent within a
// shard and across, over a lossy net, into a shallow uplink queue and to a
// crashed node, so that every way a message can end — delivery, dead drop,
// random loss, congestion — is taken. They are sent inside windows, so the
// ones to the other shard cross through an outbox. Then, over the drained
// engine:
//
//   - every boxed SERVE's pooled backing went back to wire's pool, cleared,
//     when its message ended;
//   - no record — slab or outbox, free or beyond the reset length — holds a
//     message;
//   - the packets, which only the messages ever referenced, are collected
//     while the engine is still reachable.
func TestMessageRecordsNeverPinPackets(t *testing.T) {
	e, err := New(Config{Shards: 2, Net: simnet.Config{BaseLatencyMedian: 5 * time.Millisecond, LossRate: 0.2}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const nodes = 6
	envs := make([]*NodeEnv, nodes)
	for i := range envs {
		envs[i] = e.NodeEnv(NodeID(i), NewRand(int64(i)))
		var h Handler = sinkTyped{}
		if i%3 == 0 {
			h = &kept{} // boxed deliveries; it copies ids only
		}
		// 1 Mbps and a 4 KB queue: a burst overflows it, what fits waits
		// tens of milliseconds in flight.
		e.AddNode(h, 1_000_000, 4<<10)
	}
	e.Crash(nodes - 1)

	const packets = 400
	var collected atomic.Int32
	// pooled holds, per shard, the backings of the boxed SERVEs the shard's
	// nodes sent: the shards send at the same time.
	pooled := make([][][]*stream.Packet, 2)
	// sendOn sends the SERVEs of the nodes on shard sh, from a timer of a
	// node there, which runs on that shard's goroutine.
	sendOn := func(sh int) {
		for i := 0; i < packets; i += 4 {
			from, to := envs[i/4%nodes], NodeID((i/4+1+i/24)%nodes)
			if shard, _ := e.ShardOf(from.ID()); shard != sh {
				continue
			}
			batch := make([]*stream.Packet, 4)
			ids := make([]stream.PacketID, 4)
			for j := range batch {
				batch[j] = &stream.Packet{ID: stream.PacketID(i + j), Payload: make([]byte, 100)}
				ids[j] = batch[j].ID
				runtime.SetFinalizer(batch[j], func(*stream.Packet) { collected.Add(1) })
			}
			if to%3 != 0 { // a typed handler
				from.SendServe(to, ids[:1], 100)
				from.SendServe(to, ids[1:], 100)
			}
			from.Send(to, wire.Serve{Packets: batch[:1]})
			for _, serve := range wire.SplitServeInto(nil, batch) {
				pooled[sh] = append(pooled[sh], serve.Packets[:cap(serve.Packets)])
				from.Send(to, serve)
			}
		}
	}
	// Nodes 0 and 1 are alive, one on each shard.
	send := func() {
		for sh := range pooled {
			envs[sh].After(0, func() { sendOn(sh) })
		}
	}
	e.AtBarrier(0, send)
	e.AtBarrier(100*time.Millisecond, send)
	if err := e.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := e.TotalStats()
	if st.RecvMsgs[wire.KindServe] == 0 || st.DeadDrops == 0 || st.RandomDrops == 0 || st.CongestionDrops == 0 || e.Pending() != 0 {
		t.Fatalf("the run did not end messages every way, or did not drain: %+v, %d pending", st, e.Pending())
	}

	for _, backing := range slices.Concat(pooled...) {
		if slices.IndexFunc(backing, func(p *stream.Packet) bool { return p != nil }) >= 0 {
			t.Fatal("a boxed SERVE's pooled backing still holds packets after its message ended: it never went back to the pool")
		}
	}
	var crossed uint64
	for _, s := range e.shards {
		checkArenaDrained(t, s)
		for d, ob := range s.outbox {
			recs := ob.recs[:cap(ob.recs)]
			for i := range recs {
				if recs[i].other != nil {
					t.Fatalf("outbox %d→%d record %d still references a message after the run drained", s.id, d, i)
				}
			}
		}
		crossed += s.outboxOut
	}
	if crossed == 0 {
		t.Fatal("no message crossed shards")
	}

	// Finalizers run on their own goroutine after a collection finds the
	// object unreachable; give them a moment.
	pooled = nil
	for i := 0; i < 100 && collected.Load() < 2*packets; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := collected.Load(); got != 2*packets {
		t.Fatalf("%d of %d packets were collected with the drained engine still alive: something in it pins the rest", got, 2*packets)
	}
	runtime.KeepAlive(e)
}

// ringNode forwards every typed delivery to the next node as it came,
// after checking that the list still is what its first element says it
// should be: ids are sent in runs of consecutive values.
type ringNode struct {
	t    *testing.T
	env  *NodeEnv
	next NodeID
	hops int
}

func (r *ringNode) HandleMessage(NodeID, wire.Message) {}
func (r *ringNode) OnTimer(uint8, uint32)              {}

func (r *ringNode) HandleIDs(_ NodeID, kind wire.Kind, ids []stream.PacketID) {
	for i, id := range ids {
		if id != ids[0]+stream.PacketID(i) {
			r.t.Errorf("node %d: a %v of %d ids arrived as %v", r.env.ID(), kind, len(ids), ids)
			return
		}
	}
	r.hops++
	if kind == wire.KindServe {
		r.env.SendServe(r.next, ids, 0)
	} else {
		r.env.SendIDs(r.next, kind, ids)
	}
}

// TestTypedMessagesSurviveRecordReuse circulates id lists of every length
// around the inline/spill boundaries through a ring that
// crosses shards on every hop, for a hundred windows: each hop copies the
// list out of a slab record into an outbox record (written by the sending
// shard's goroutine, drained and cleared by the receiving one's) and into
// the next slab, all of them reused records. Every list must arrive intact
// at every hop — and the race detector must see nothing, which is what
// this test is in the -race passes for.
func TestTypedMessagesSurviveRecordReuse(t *testing.T) {
	for _, shards := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("%d-shards", shards), func(t *testing.T) {
			const (
				nodes = 30
				lat   = 10 * time.Millisecond
				until = time.Second
			)
			e, err := New(Config{Shards: shards, Net: flatNet(lat)})
			if err != nil {
				t.Fatal(err)
			}
			ring := make([]*ringNode, nodes)
			for i := range ring {
				ring[i] = &ringNode{t: t, env: e.NodeEnv(NodeID(i), NewRand(int64(i))), next: NodeID((i + 1) % nodes)}
				e.AddNode(ring[i], shaping.Unlimited, 0)
			}
			ids := make([]stream.PacketID, 4*inlineIDs)
			for i := range ids {
				ids[i] = stream.PacketID(1000 + i)
			}
			started := 0
			for i, r := range ring {
				// Lengths sweep 1..3×inlineIDs ids for PROPOSEs, 1..inlineIDs
				// for REQUESTs and 1..inlineIDs+2 for SERVEs; each list starts
				// at its own offset into the run above.
				n := 1 + i%(3*inlineIDs)
				r.env.SendIDs(r.next, wire.KindPropose, ids[i%inlineIDs:][:n])
				r.env.SendIDs(r.next, wire.KindRequest, ids[:1+i%inlineIDs])
				r.env.SendServe(r.next, ids[i%2:][:1+i%(inlineIDs+2)], 0)
				started += 3
			}
			if err := e.Run(until); err != nil {
				t.Fatal(err)
			}
			hops := 0
			for _, r := range ring {
				hops += r.hops
			}
			if want := started * int(until/lat); hops != want {
				t.Fatalf("%d hops, want %d: messages were lost or duplicated", hops, want)
			}
		})
	}
}

// shuffleKept is a membership record that keeps a copy of every SHUFFLE it
// is handed and never answers.
type shuffleKept struct{ got []wire.Shuffle }

func (k *shuffleKept) Sample(int) []wire.NodeID  { return nil }
func (k *shuffleKept) Tick() (member.Emit, bool) { return member.Emit{}, false }
func (k *shuffleKept) Handle(_ NodeID, msg wire.Message) (member.Emit, bool) {
	m := msg.(*wire.Shuffle) // the engine hands a rebuilt SHUFFLE over by pointer
	k.got = append(k.got, wire.Shuffle{Reply: m.Reply, Entries: slices.Clone(m.Entries)})
	return member.Emit{}, false
}

// TestShuffleRecordRoundTrip sends SHUFFLEs, by value and by pointer, of
// every length around the record's layout edges — four entries (eight
// words) inline, five (ten) spilled, up to wire.MaxShuffleEntries, the
// largest that fits a datagram — requests and replies, with ages 0 and
// 65535 and ids carrying generation bits, on one shard and across two,
// where, sent inside a window, they cross through an outbox. They must
// arrive as sent, charged at their WireSize, and leave every record and
// range free.
func TestShuffleRecordRoundTrip(t *testing.T) {
	var sent []wire.Shuffle
	for _, n := range []int{0, 1, 3, 4, 5, 8, 20, wire.MaxShuffleEntries} {
		for _, reply := range []bool{false, true} {
			m := wire.Shuffle{Reply: reply, Entries: make([]wire.ShuffleEntry, n)}
			for i := range m.Entries {
				m.Entries[i] = wire.ShuffleEntry{
					ID:  makeID((i*7919+n)&slotMask, uint16((i*131+n)%(maxGen+1))),
					Age: []uint16{0, 65535, uint16(i)}[i%3],
				}
			}
			if n > 0 {
				m.Entries[n-1].ID = makeID(slotMask, maxGen) // every id bit set
			}
			sent = append(sent, m)
		}
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d-shards", shards), func(t *testing.T) {
			e, err := New(Config{Shards: shards, Net: flatNet(time.Millisecond)})
			if err != nil {
				t.Fatal(err)
			}
			sender := e.NodeEnv(0, NewRand(1))
			e.AddNode(&kept{}, shaping.Unlimited, 0)
			e.AddNode(&kept{}, shaping.Unlimited, 0)
			recv := &shuffleKept{}
			e.AttachSampler(1, recv, time.Hour)
			bytes := 0
			sender.After(0, func() {
				for i := range sent {
					if i%2 == 0 {
						sender.Send(1, sent[i])
					} else {
						sender.Send(1, &sent[i])
					}
					bytes += sent[i].WireSize() - wire.UDPOverheadBytes
				}
				if shards > 1 {
					ob := &e.shards[0].outbox[1]
					if len(ob.ids) == 0 {
						t.Fatal("no SHUFFLE spilled into the outbox's region")
					}
					checkInOutbox(t, ob, len(sent))
				}
			})
			if err := e.Run(time.Second); err != nil {
				t.Fatal(err)
			}
			if l := e.ShardLoads(); shards > 1 && l[0].OutboxOut != uint64(len(sent)) {
				t.Fatalf("%d SHUFFLEs sent across shards, %d handed to an outbox", len(sent), l[0].OutboxOut)
			}
			if len(recv.got) != len(sent) {
				t.Fatalf("%d of %d SHUFFLEs delivered", len(recv.got), len(sent))
			}
			for i, got := range recv.got {
				if got.Reply != sent[i].Reply || !slices.Equal(got.Entries, sent[i].Entries) {
					t.Fatalf("SHUFFLE %d arrived as %+v, sent as %+v", i, got, sent[i])
				}
			}
			if got := e.NodeStats(0).SentBytes[wire.KindShuffle]; got != uint64(bytes) {
				t.Fatalf("the SHUFFLEs were charged %d bytes, their WireSize says %d", got, bytes)
			}
			for _, s := range e.shards {
				checkArenaDrained(t, s)
			}
		})
	}
}
