package megasim

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

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

// TestMessageRecordRoundTrip fills one record with every shape of message
// in turn — the inline and spill boundaries of both list kinds, and a boxed
// message — and reads each back through payload: a reused record must show
// the message it was last set to and nothing of the ones before.
func TestMessageRecordRoundTrip(t *testing.T) {
	ids := make([]stream.PacketID, 3*inlineIDs)
	pkts := make([]*stream.Packet, 5)
	for i := range ids {
		ids[i] = stream.PacketID(100 + i)
	}
	for i := range pkts {
		pkts[i] = &stream.Packet{ID: stream.PacketID(i)}
	}
	var rec msgRec
	for i, in := range []payload{
		{kind: wire.KindPropose, ids: ids},
		{kind: wire.KindRequest, ids: ids[:inlineIDs]},
		{kind: wire.KindServe, pkts: pkts},
		{kind: wire.KindRequest, ids: ids[:inlineIDs+1]},
		{kind: wire.KindServe, pkts: pkts[:1]},
		{kind: wire.KindPropose, ids: ids[:1]},
		{kind: wire.KindShuffle, other: wire.Shuffle{Reply: true}},
		{kind: wire.KindServe, pkts: pkts[:2]},
		{kind: wire.KindPropose},
		{kind: wire.KindServe},
	} {
		rec.set(int32(i), in)
		out := rec.payload()
		if out.kind != in.kind || !slices.Equal(out.ids, in.ids) || !slices.Equal(out.pkts, in.pkts) ||
			!reflect.DeepEqual(out.other, in.other) || rec.size != int32(i) {
			t.Fatalf("step %d: record set to %+v reads back %+v", i, in, out)
		}
		if got, want := out.message().WireSize(), in.wireSize(); got != want {
			t.Fatalf("step %d: boxed back the message costs %d bytes on the wire, the payload %d", i, got, want)
		}
		rec.release()
		if rec.other != nil || rec.pkt1[0] != nil || slices.IndexFunc(rec.pkts[:cap(rec.pkts)], func(p *stream.Packet) bool { return p != nil }) >= 0 {
			t.Fatalf("step %d: the released record still references a message or a packet", i)
		}
	}
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
func (k *typedKept) HandlePackets(from NodeID, pkts []*stream.Packet) {
	k.note("typed", from, wire.KindServe, nil, pkts)
}

// TestSendRoutesDeliverAlike sends the same messages typed and boxed, to a
// typed and to a boxed handler, on the sender's shard and across: whatever
// the pairing, the receiver sees the same contents in the same order at the
// same cost on the wire, and only the receiver's kind decides how they are
// handed over.
func TestSendRoutesDeliverAlike(t *testing.T) {
	ids := make([]stream.PacketID, 2*inlineIDs)
	pkts := make([]*stream.Packet, 3)
	for i := range ids {
		ids[i] = stream.PacketID(7 * i)
	}
	for i := range pkts {
		pkts[i] = &stream.Packet{ID: stream.PacketID(i), Payload: make([]byte, 10*(i+1))}
	}
	run := func(t *testing.T, typedSend bool) (*Engine, []*kept) {
		e, err := newEngine(Config{Shards: 2, Net: flatNet(time.Millisecond)})
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
				sender.SendPackets(to, pkts[:1])
				sender.SendPackets(to, pkts)
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
	for i := range typedRecv {
		if !slices.Equal(typedRecv[i].got, boxedRecv[i].got) {
			t.Fatalf("node %d was delivered %q after typed sends, %q after boxed sends", i+1, typedRecv[i].got, boxedRecv[i].got)
		}
		route := "boxed"
		if typedRecv[i].typed {
			route = "typed"
		}
		want := []string{
			fmt.Sprintf("%s PROPOSE from 0 ids %v packets []", route, ids),
			fmt.Sprintf("%s REQUEST from 0 ids %v packets []", route, ids[:2]),
			fmt.Sprintf("%s SERVE from 0 ids [] packets [0]", route),
			fmt.Sprintf("%s SERVE from 0 ids [] packets [0 1 2]", route),
			"boxed FEED-ME from 0 ids [] packets []",
		}
		if !slices.Equal(typedRecv[i].got, want) {
			t.Fatalf("node %d was delivered %q, want %q", i+1, typedRecv[i].got, want)
		}
	}
}

// sinkTyped is a TimerHandler that keeps nothing.
type sinkTyped struct{}

func (sinkTyped) HandleMessage(NodeID, wire.Message)             {}
func (sinkTyped) OnTimer(uint8, uint32)                          {}
func (sinkTyped) HandleIDs(NodeID, wire.Kind, []stream.PacketID) {}
func (sinkTyped) HandlePackets(NodeID, []*stream.Packet)         {}

// TestMessageRecordsNeverPinPackets is the engine-side sibling of wire's
// TestRecycleServeNeverPinsPackets. SERVEs of one and of several packets
// are sent typed and boxed, within a shard and across, over a lossy net,
// into a shallow uplink queue and to a crashed node, so that every way a
// message can end — delivery, dead drop, random loss, congestion — is
// taken. Then, over the drained engine:
//
//   - a boxed SERVE's pooled backing went back to wire's pool inside Send,
//     not at the delivery seconds later;
//   - no record — slab or outbox, free or beyond the reset length — holds a
//     packet or a message;
//   - the packets, which only the messages ever referenced, are collected
//     while the engine is still reachable.
func TestMessageRecordsNeverPinPackets(t *testing.T) {
	e, err := newEngine(Config{Shards: 2, Net: simnet.Config{BaseLatencyMedian: 5 * time.Millisecond, LossRate: 0.2}, Seed: 5})
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
	send := func() {
		for i := 0; i < packets; i += 4 {
			batch := make([]*stream.Packet, 4)
			for j := range batch {
				batch[j] = &stream.Packet{ID: stream.PacketID(i + j), Payload: make([]byte, 100)}
				runtime.SetFinalizer(batch[j], func(*stream.Packet) { collected.Add(1) })
			}
			from, to := envs[i/4%nodes], NodeID((i/4+1+i/24)%nodes)
			from.SendPackets(to, batch[:1])
			from.SendPackets(to, batch[1:])
			for _, serve := range wire.SplitServeInto(nil, batch) {
				pooled := serve.Packets[:cap(serve.Packets)]
				from.Send(to, serve)
				if slices.IndexFunc(pooled, func(p *stream.Packet) bool { return p != nil }) >= 0 {
					t.Fatal("a boxed SERVE's pooled backing still holds packets after Send: it rides with the message instead of returning to the pool")
				}
			}
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

	pins := func(where string, r *msgRec) {
		if r.other != nil || r.pkt1[0] != nil ||
			slices.IndexFunc(r.pkts[:cap(r.pkts)], func(p *stream.Packet) bool { return p != nil }) >= 0 {
			t.Fatalf("%s still references a message or a packet after the run drained", where)
		}
	}
	var crossed uint64
	for _, s := range e.shards {
		if len(s.msgFree) != len(s.msgs) {
			t.Fatalf("shard %d: %d of %d slab records are free after the run drained", s.id, len(s.msgFree), len(s.msgs))
		}
		for i := range s.msgs {
			pins(fmt.Sprintf("shard %d slab record %d", s.id, i), &s.msgs[i])
		}
		for d, q := range s.outbox {
			q = q[:cap(q)]
			for i := range q {
				pins(fmt.Sprintf("outbox %d→%d record %d", s.id, d, i), &q[i].rec)
			}
		}
		crossed += s.outboxOut
	}
	if crossed == 0 {
		t.Fatal("no message crossed shards")
	}

	// Finalizers run on their own goroutine after a collection finds the
	// object unreachable; give them a moment.
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
// should be: ids and packet ids are sent in runs of consecutive values.
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
	r.env.SendIDs(r.next, kind, ids)
}

func (r *ringNode) HandlePackets(_ NodeID, pkts []*stream.Packet) {
	for i, p := range pkts {
		if p == nil || p.ID != pkts[0].ID+stream.PacketID(i) {
			r.t.Errorf("node %d: a SERVE of %d packets arrived corrupted at %d", r.env.ID(), len(pkts), i)
			return
		}
	}
	r.hops++
	r.env.SendPackets(r.next, pkts)
}

// TestTypedMessagesSurviveRecordReuse circulates id and packet lists of
// every length around the inline/spill boundaries through a ring that
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
			e, err := newEngine(Config{Shards: shards, Net: flatNet(lat)})
			if err != nil {
				t.Fatal(err)
			}
			ring := make([]*ringNode, nodes)
			for i := range ring {
				ring[i] = &ringNode{t: t, env: e.NodeEnv(NodeID(i), NewRand(int64(i))), next: NodeID((i + 1) % nodes)}
				e.AddNode(ring[i], shaping.Unlimited, 0)
			}
			ids := make([]stream.PacketID, 4*inlineIDs)
			pkts := make([]*stream.Packet, 6)
			for i := range ids {
				ids[i] = stream.PacketID(1000 + i)
			}
			for i := range pkts {
				pkts[i] = &stream.Packet{ID: stream.PacketID(i)}
			}
			started := 0
			for i, r := range ring {
				// Lengths sweep 1..3×inlineIDs ids and 1..5 packets; each
				// list starts at its own offset into the runs above.
				n := 1 + i%(3*inlineIDs)
				r.env.SendIDs(r.next, wire.KindPropose, ids[i%inlineIDs:][:n])
				r.env.SendIDs(r.next, wire.KindRequest, ids[:1+i%inlineIDs])
				r.env.SendPackets(r.next, pkts[i%2:][:1+i%5])
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
