package core

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"gossipstream/internal/stream"
	"gossipstream/internal/wire"
)

// stubEnv is an Env that goes nowhere: Send consumes the message the way an
// engine's last consumer does, After keeps the callback for the test to
// fire by hand.
type stubEnv struct {
	rng    *rand.Rand
	timers []func()
}

func (e *stubEnv) ID() wire.NodeID    { return 1 }
func (e *stubEnv) Now() time.Duration { return 0 }
func (e *stubEnv) Rand() *rand.Rand   { return e.rng }
func (e *stubEnv) Send(_ wire.NodeID, msg wire.Message) {
	if s, ok := msg.(wire.Serve); ok {
		wire.RecycleServe(s)
	}
}
func (e *stubEnv) After(_ time.Duration, fn func()) func() {
	e.timers = append(e.timers, fn)
	return func() {}
}

// flatStubEnv is stubEnv as a TimerEnv: armed timers are kept as the flat
// (kind, arg) records they are, typed sends go nowhere.
type flatStubEnv struct {
	stubEnv
	flatTimers []flatTimer
}

type flatTimer struct {
	kind uint8
	arg  uint32
}

func (e *flatStubEnv) FlatTimers() bool { return true }
func (e *flatStubEnv) AfterTimer(_ time.Duration, kind uint8, arg uint32) {
	e.flatTimers = append(e.flatTimers, flatTimer{kind, arg})
}
func (e *flatStubEnv) SendIDs(wire.NodeID, wire.Kind, []stream.PacketID) {}
func (e *flatStubEnv) SendPackets(wire.NodeID, []*stream.Packet)         {}

// fixedSampler always returns the same partners, so that what a round
// allocates is core's own.
type fixedSampler []wire.NodeID

func (s fixedSampler) Sample(int) []wire.NodeID { return s }

// TestHandlerAllocBudget holds the protocol handlers to their allocation
// budgets in steady state, one gossip period at a time: a PROPOSE of twelve
// fresh ids (what a node learns per round of the paper's stream), the
// twelve SERVEs that answer the REQUEST, the round that proposes them on,
// a REQUEST for the twelve from a partner, and the retransmission timer
// that fires to find its batch retired by the SERVEs.
//
// Over a TimerEnv — messages in and out through the typed entry points —
// nothing allocates. Over a plain Env:
//
//   - PROPOSE: the REQUEST's id list and its box, and the timer closure
//     (here every PROPOSE arms the timer; in a run most find it armed).
//   - SERVE: nothing but amortized scratch growth.
//   - round: the PROPOSE's copy of the ids and its box.
//   - REQUEST: the box of the one SERVE these small packets fit in (and
//     its pooled backing anew when a collection emptied wire's pool).
//
// Before request state moved to a slab a PROPOSE cost 31 allocations here;
// before messages went flat the TimerEnv budgets were 2, 0, 2 and 1.
func TestHandlerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const idsPerMessage = 12
	layout := stream.Layout{RateBps: 600_000, PayloadBytes: 64, DataPerWindow: 101, ParityPerWindow: 9, Windows: 20}
	src, err := stream.NewSource(layout, 1)
	if err != nil {
		t.Fatal(err)
	}
	pkts := src.PacketsUntil(layout.Duration())
	rounds := len(pkts) / idsPerMessage

	for _, tc := range []struct {
		name                           string
		flat                           bool
		propose, serve, round, request float64
	}{
		{name: "plain-env", propose: 3, serve: 0.1, round: 2, request: 1.1},
		{name: "timer-env", flat: true, propose: 0, serve: 0, round: 0, request: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			flat := &flatStubEnv{stubEnv: stubEnv{rng: rand.New(rand.NewSource(1))}}
			var env Env = &flat.stubEnv
			if tc.flat {
				env = flat
			}
			stub := &flat.stubEnv
			p, err := NewPeer(env, DefaultConfig(), fixedSampler{2, 3, 4, 5, 6, 7, 8}, layout)
			if err != nil {
				t.Fatal(err)
			}
			p.Start()
			if (p.flat != nil) != tc.flat {
				t.Fatalf("peer on the flat route: %v, want %v", p.flat != nil, tc.flat)
			}
			// take empties the stub's timer list and returns its one entry.
			take := func() func() {
				if len(stub.timers)+len(flat.flatTimers) != 1 {
					t.Fatalf("%d timers armed, want 1", len(stub.timers)+len(flat.flatTimers))
				}
				if tc.flat {
					ft := flat.flatTimers[0]
					flat.flatTimers = flat.flatTimers[:0]
					return func() { p.OnTimer(ft.kind, ft.arg) }
				}
				fn := stub.timers[0]
				stub.timers = stub.timers[:0]
				return fn
			}
			// The three deliveries, over the route under test.
			deliverIDs := func(kind wire.Kind, ids []stream.PacketID, boxed wire.Message) {
				if tc.flat {
					p.HandleIDs(2, kind, ids)
				} else {
					p.HandleMessage(2, boxed)
				}
			}
			deliverPacket := func(pkt []*stream.Packet, boxed wire.Message) {
				if tc.flat {
					p.HandlePackets(2, pkt)
				} else {
					p.HandleMessage(2, boxed)
				}
			}
			tick := take()

			var ms runtime.MemStats
			mallocs := func() uint64 {
				runtime.ReadMemStats(&ms)
				return ms.Mallocs
			}
			// The first rounds grow the slabs and scratch to their steady
			// size; the budgets are for what every later round costs.
			const warmUp = 8
			var propose, serve, round, request uint64
			for i := 0; i < rounds; i++ {
				batch := pkts[i*idsPerMessage : (i+1)*idsPerMessage]
				ids := make([]stream.PacketID, len(batch))
				serves := make([]wire.Message, len(batch))
				for j, pkt := range batch {
					ids[j] = pkt.ID
					serves[j] = wire.Serve{Packets: batch[j : j+1]}
				}
				var proposeMsg wire.Message = wire.Propose{IDs: ids}
				var requestMsg wire.Message = wire.Request{IDs: ids}

				m0 := mallocs()
				deliverIDs(wire.KindPropose, ids, proposeMsg)
				m1 := mallocs()
				check := take()
				m2 := mallocs()
				for j := range batch {
					deliverPacket(batch[j:j+1], serves[j])
				}
				m3 := mallocs()
				tick()
				m4 := mallocs()
				deliverIDs(wire.KindRequest, ids, requestMsg)
				m5 := mallocs()
				tick = take()
				check()
				if i >= warmUp {
					propose += m1 - m0
					serve += m3 - m2
					round += m4 - m3
					request += m5 - m4
				}
			}
			measured := float64(rounds - warmUp)
			c := p.Counters()
			if c.RequestsSent != rounds || c.Rounds != rounds || c.ProposesSent == 0 || c.Retransmissions != 0 ||
				c.ServesSent != rounds || c.PacketsServed != rounds*idsPerMessage ||
				c.RetBatchesRetired != rounds || c.RetIdleWakeups != rounds || c.RetChecks != 0 {
				t.Fatalf("the handlers were not exercised as planned: %+v", c)
			}
			if len(p.reqs) != idsPerMessage || len(p.batches) != 1 {
				t.Fatalf("slabs grew to %d request records and %d batches, want %d and 1: records are not recycled",
					len(p.reqs), len(p.batches), idsPerMessage)
			}
			for _, b := range []struct {
				what        string
				got, budget float64
			}{
				{"a 12-id PROPOSE of fresh ids", float64(propose) / measured, tc.propose},
				{"a SERVE of a new packet", float64(serve) / (measured * idsPerMessage), tc.serve},
				{"a gossip round", float64(round) / measured, tc.round},
				{"a 12-id REQUEST for held packets", float64(request) / measured, tc.request},
			} {
				t.Logf("%s allocates %.2f, budget %.2g", b.what, b.got, b.budget)
				if b.got > b.budget {
					t.Errorf("%s is over its allocation budget", b.what)
				}
			}
		})
	}
}
