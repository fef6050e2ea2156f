package megasim

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"gossipstream/internal/shaping"
	"gossipstream/internal/stream"
	"gossipstream/internal/wire"
)

// fanPartners is how many partners a test fan-out goes to: nodes 1 to 6,
// so that at three shards two partners share each shard, the sender's
// included.
const fanPartners = 6

// recordsInFlight counts the slab records named by pending deliveries
// across the engine's shards.
func recordsInFlight(e *Engine) int {
	n := 0
	for _, s := range e.shards {
		n += s.msgs.Len() - s.msgFree.Len()
	}
	return n
}

// TestFanOutSharesOneRecord sends one spilled list and then one inline
// list to six partners, the way a gossip round sends its PROPOSE, at one,
// two and three shards, from a barrier callback (straight into each
// destination's queue) and from inside a window (through the outboxes).
// Each list must take exactly one record per destination shard its kept
// sends go to — in the outbox and then in the slab — however the sends
// end: delivered, dropped at the uplink or by loss before they take
// anything, dead-dropped at a partner that crashed in flight, stale-dropped
// at a partner whose slot was recycled, or every one of them dropped. The
// partners see what was delivered to them intact and in order, the traffic
// is conserved, and the drained engine holds no record or spill block.
func TestFanOutSharesOneRecord(t *testing.T) {
	const (
		lat  = 10 * time.Millisecond
		send = 25 * time.Millisecond // the fan-out's instant
	)
	spilled, inline := make([]stream.PacketID, 2*inlineIDs+2), make([]stream.PacketID, inlineIDs-4)
	for i := range spilled {
		spilled[i] = stream.PacketID(500 + 3*i)
	}
	for i := range inline {
		inline[i] = stream.PacketID(900 + i)
	}
	lists := [][]stream.PacketID{spilled, inline}
	size := func(l []stream.PacketID) int64 {
		return int64(payload{kind: wire.KindPropose, ids: l}.wireSize() - wire.UDPOverheadBytes)
	}
	type fanCase struct {
		name string
		loss float64
		// upBps and queue shape the sender's uplink (shaping.Unlimited: none).
		upBps, queue int64
		// filler fills the sender's uplink with a one-id message first.
		filler bool
		// crashed partners die in flight, at send+5 ms; stale is the partner
		// whose slot is recycled under the fan-out.
		crashed []NodeID
		stale   NodeID
	}
	cases := []fanCase{
		{name: "delivered", upBps: shaping.Unlimited},
		// 1 Mbps: the queue takes three spilled sends and then two inline
		// ones; the rest overflow it.
		{name: "uplink-drops", upBps: 1_000_000, queue: 3*size(spilled) + 2*size(inline)},
		{name: "lost", loss: 0.5, upBps: shaping.Unlimited},
		{name: "crashed-in-flight", upBps: shaping.Unlimited, crashed: []NodeID{1, 5}},
		// Slot 2 crashes at 20 ms and is recycled at 30: the fan-out at 25 ms
		// reaches it at 35 ms under its stale handle.
		{name: "stale", upBps: shaping.Unlimited, stale: 2},
		// A filler one-id message keeps the uplink busy, so every send of the
		// fan-out overflows a one-byte queue.
		{name: "all-dropped", upBps: 1_000, queue: 1, filler: true},
		{name: "all-crashed", upBps: shaping.Unlimited, crashed: []NodeID{1, 2, 3, 4, 5, 6}},
	}
	for _, shards := range []int{1, 2, 3} {
		for _, window := range []bool{false, true} {
			for _, c := range cases {
				route := "barrier"
				if window {
					route = "window"
				}
				t.Run(fmt.Sprintf("%d-shards/%s/%s", shards, route, c.name), func(t *testing.T) {
					net := flatNet(lat)
					net.LossRate = c.loss
					e, err := New(Config{Shards: shards, Seed: 3, Net: net})
					if err != nil {
						t.Fatal(err)
					}
					sender := e.NodeEnv(0, NewRand(1))
					e.AddNode(&kept{}, c.upBps, c.queue)
					recv := make([]*typedKept, fanPartners+1)
					for p := 1; p <= fanPartners; p++ {
						recv[p] = &typedKept{kept{typed: true}}
						e.AddNode(recv[p], shaping.Unlimited, 0)
					}
					shardOf := func(p int) int { d, _ := e.ShardOf(NodeID(p)); return d }
					var inOutboxes, inSlabs int
					fanOut := func() {
						if c.filler {
							sendOneID(sender, 1, wire.KindRequest)
						}
						for _, l := range lists {
							for p := 1; p <= fanPartners; p++ {
								sender.SendIDs(NodeID(p), wire.KindPropose, l)
							}
						}
						for _, ob := range e.shards[0].outbox {
							inOutboxes += len(ob.recs)
						}
					}
					if c.stale != 0 {
						e.AtBarrier(send-5*time.Millisecond, func() { e.Crash(c.stale) })
						e.AtBarrier(send+5*time.Millisecond, func() {
							if id := e.AddNode(sinkTyped{}, shaping.Unlimited, 0); id != makeID(int(c.stale), 1) {
								t.Fatalf("reuse minted %d, want slot %d at generation 1", id, c.stale)
							}
						})
					}
					e.AtBarrier(send, func() {
						if window {
							sender.After(0, fanOut)
						} else {
							fanOut()
						}
					})
					// The window has ended and the outboxes are merged.
					e.AtBarrier(send+time.Microsecond, func() { inSlabs = recordsInFlight(e) })
					e.AtBarrier(send+5*time.Millisecond, func() {
						for _, p := range c.crashed {
							e.Crash(p)
						}
					})
					if err := e.Run(time.Second); err != nil {
						t.Fatal(err)
					}

					// Which sends were kept: every one when partners crash or go
					// stale (nothing is dropped at the sender then), else those
					// delivered, each partner's in the order sent.
					dropsAtDelivery := len(c.crashed) > 0 || c.stale != 0
					type pair struct{ list, shard int }
					slab, outbox := map[pair]bool{}, map[pair]bool{}
					delivered := 0
					for p := 1; p <= fanPartners; p++ {
						got := recv[p].got
						if c.filler && p == 1 && len(got) > 0 {
							got = got[1:] // the filler, a one-id REQUEST
						}
						next := 0
						for li, l := range lists {
							want := fmt.Sprintf("typed PROPOSE from 0 ids %v packets []", l)
							kept := dropsAtDelivery
							if next < len(got) && got[next] == want {
								kept = true
								next++
								delivered++
							}
							if kept {
								slab[pair{li, shardOf(p)}] = true
								if window && shardOf(p) != 0 {
									outbox[pair{li, shardOf(p)}] = true
								}
							}
						}
						if next != len(got) {
							t.Fatalf("partner %d was delivered %q: not the lists sent, in order", p, got)
						}
					}
					if inSlabs != len(slab) || inOutboxes != len(outbox) {
						t.Fatalf("%d slab and %d outbox records held the fan-outs, want one per list and destination shard: %d and %d",
							inSlabs, inOutboxes, len(slab), len(outbox))
					}
					st := e.TotalStats()
					switch c.name {
					case "delivered":
						if delivered != 2*fanPartners {
							t.Fatalf("%d of %d sends delivered", delivered, 2*fanPartners)
						}
					case "uplink-drops", "lost":
						if delivered == 0 || delivered == 2*fanPartners || st.CongestionDrops+st.RandomDrops != uint64(2*fanPartners-delivered) {
							t.Fatalf("%d of %d sends delivered, %d dropped at the uplink and %d lost: the case drops none or all", delivered, 2*fanPartners, st.CongestionDrops, st.RandomDrops)
						}
					case "all-dropped":
						if delivered != 0 || inSlabs != 0 || st.CongestionDrops != 2*fanPartners {
							t.Fatalf("%d sends delivered, %d records held, %d dropped at the uplink: want none, none, all", delivered, inSlabs, st.CongestionDrops)
						}
					default:
						if dead := uint64(2 * (len(c.crashed) + min(int(c.stale), 1))); st.DeadDrops != dead || delivered != 2*fanPartners-int(dead) {
							t.Fatalf("%d dead drops and %d deliveries, want %d and %d", st.DeadDrops, delivered, dead, 2*fanPartners-int(dead))
						}
						if c.stale != 0 && e.StaleDrops() != 2 {
							t.Fatalf("%d stale drops, want 2", e.StaleDrops())
						}
					}
					assertConserved(t, st)
					for _, s := range e.shards {
						checkArenaDrained(t, s)
					}
				})
			}
		}
	}
}

// TestCallerServeSurvivesDelivery sends a boxed SERVE whose Packets the
// caller built with as many packets — and so the same capacity — as one of
// wire's pooled backings holds: the engine hands it over intact, and
// releasing its record leaves the caller's backing alone, neither cleared
// nor lent to a later SplitServeInto.
func TestCallerServeSurvivesDelivery(t *testing.T) {
	pkts := make([]*stream.Packet, wire.MaxIDsPerMessage)
	for i := range pkts {
		pkts[i] = &stream.Packet{ID: stream.PacketID(i)}
	}
	pkts, _ = wire.CutPackets(pkts)
	pkts = pkts[:len(pkts):len(pkts)]
	ids := make([]stream.PacketID, len(pkts))
	for i, p := range pkts {
		ids[i] = p.ID
	}
	for _, shards := range []int{1, 2} {
		e, err := New(Config{Shards: shards, Net: flatNet(time.Millisecond)})
		if err != nil {
			t.Fatal(err)
		}
		sender := e.NodeEnv(0, NewRand(1))
		e.AddNode(&kept{}, shaping.Unlimited, 0)
		recv := &kept{}
		e.AddNode(recv, shaping.Unlimited, 0)
		sender.After(0, func() { sender.Send(1, wire.Serve{Packets: pkts}) })
		if err := e.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("boxed SERVE from 0 ids [] packets %v", ids); len(recv.got) != 1 || recv.got[0] != want {
			t.Fatalf("%d shards: delivered %q, want the SERVE of %d packets", shards, recv.got, len(pkts))
		}
		if i := slices.Index(pkts, nil); i >= 0 {
			t.Fatalf("%d shards: the caller's %d-packet backing was cleared from slot %d on delivery: it went to wire's pool", shards, len(pkts), i)
		}
		for range 4 {
			if s := wire.SplitServeInto(nil, pkts[:1])[0]; &s.Packets[:1][0] == &pkts[0] {
				t.Fatalf("%d shards: SplitServeInto lent the caller's backing", shards)
			}
		}
		for _, s := range e.shards {
			checkArenaDrained(t, s)
		}
	}
}

// fanOutTrip sends p, with k = len(partners) equal sends, from node 0 to
// the partners in order — a partner may repeat — from inside the first
// window of an engine of the given shards with nodes 1 to fanPartners as
// typedKepts. Every partner must be delivered p once per send to it, and
// the slab and the spill pool must drain. In flight, the fan-out must hold
// no slab record when it rides in its events (carried), one per send when
// it travels boxed, and otherwise one per destination shard: one per
// distinct (list, destination shard) pair.
func fanOutTrip(t *testing.T, shards int, p payload, partners []NodeID, carried bool) {
	t.Helper()
	e, err := New(Config{Shards: shards, Net: flatNet(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	sender := e.NodeEnv(0, NewRand(1))
	e.AddNode(&kept{}, shaping.Unlimited, 0)
	recv := make([]*typedKept, fanPartners+1)
	for i := 1; i <= fanPartners; i++ {
		recv[i] = &typedKept{kept{typed: true}}
		e.AddNode(recv[i], shaping.Unlimited, 0)
	}
	sender.After(0, func() {
		for _, to := range partners {
			sendShape(sender, to, p)
		}
	})
	records := -1
	e.AtBarrier(time.Microsecond, func() { records = recordsInFlight(e) })
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	want := deliveredAs(p)
	for i := 1; i <= fanPartners; i++ {
		n := 0
		for _, to := range partners {
			if to == NodeID(i) {
				n++
			}
		}
		if len(recv[i].got) != n || slices.IndexFunc(recv[i].got, func(s string) bool { return s != want }) >= 0 {
			t.Fatalf("partner %d, sent %d of %q, was delivered %q", i, n, want, recv[i].got)
		}
	}
	st := e.TotalStats()
	if st.SentMsgs != st.RecvMsgs {
		t.Fatalf("%v sent, %v received", st.SentMsgs, st.RecvMsgs)
	}
	for _, s := range e.shards {
		checkArenaDrained(t, s)
	}
	dests := map[int]bool{}
	for _, to := range partners {
		d, _ := e.ShardOf(to)
		dests[d] = true
	}
	wantRecords := len(dests)
	switch {
	case carried:
		wantRecords = 0
	case p.other != nil && p.kind != wire.KindPropose && p.kind != wire.KindRequest:
		// Still boxed in flight: a boxed PROPOSE or REQUEST is sent as its list.
		wantRecords = len(partners)
	}
	if records != wantRecords {
		t.Fatalf("%v of %d ids (boxed %v) sent to %v over %d shards: %d slab records in flight, want %d",
			p.kind, len(p.ids), p.other != nil, partners, shards, records, wantRecords)
	}
}

// TestFreedRecordIsNotReused sends one spilled list to a partner and, once
// that delivery has released its record, to two partners: the record its
// slab filled last is free by then, so the second fan-out must take a
// record of its own per destination shard rather than name the freed one.
func TestFreedRecordIsNotReused(t *testing.T) {
	const lat = 10 * time.Millisecond
	list := make([]stream.PacketID, 2*inlineIDs)
	for i := range list {
		list[i] = stream.PacketID(700 + i)
	}
	for _, shards := range []int{1, 2} {
		e, err := New(Config{Shards: shards, Net: flatNet(lat)})
		if err != nil {
			t.Fatal(err)
		}
		sender := e.NodeEnv(0, NewRand(1))
		e.AddNode(&kept{}, shaping.Unlimited, 0)
		recv := []*typedKept{{kept{typed: true}}, {kept{typed: true}}}
		for _, r := range recv {
			e.AddNode(r, shaping.Unlimited, 0)
		}
		e.AtBarrier(5*time.Millisecond, func() { sender.SendIDs(1, wire.KindPropose, list) })
		held := -1
		e.AtBarrier(5*time.Millisecond+2*lat, func() {
			sender.SendIDs(1, wire.KindPropose, list)
			sender.SendIDs(2, wire.KindPropose, list)
			held = recordsInFlight(e)
		})
		if err := e.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		dests := map[int]bool{}
		for _, p := range []NodeID{1, 2} {
			d, _ := e.ShardOf(p)
			dests[d] = true
		}
		if held != len(dests) {
			t.Fatalf("%d shards: %d slab records held the second fan-out, want one per destination shard: %d", shards, held, len(dests))
		}
		want := fmt.Sprintf("typed PROPOSE from 0 ids %v packets []", list)
		if got := recv[0].got; len(got) != 2 || got[0] != want || got[1] != want {
			t.Fatalf("%d shards: partner 1 was delivered %q, want the list twice", shards, got)
		}
		if got := recv[1].got; len(got) != 1 || got[0] != want {
			t.Fatalf("%d shards: partner 2 was delivered %q, want the list once", shards, got)
		}
		for _, s := range e.shards {
			checkArenaDrained(t, s)
		}
	}
}
