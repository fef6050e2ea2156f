package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"gossipstream/internal/member"
	"gossipstream/internal/stream"
	"gossipstream/internal/wire"
)

// stubEnv is an Env that goes nowhere: Send consumes the message the way an
// engine's last consumer does, After keeps the callback for the test to
// fire by hand.
type stubEnv struct {
	rng    *rand.Rand
	now    time.Duration
	timers []func()
}

func (e *stubEnv) ID() wire.NodeID    { return 1 }
func (e *stubEnv) Now() time.Duration { return e.now }
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
func (e *flatStubEnv) SendServe(wire.NodeID, []stream.PacketID, int)     {}

var _ TimerEnv = (*flatStubEnv)(nil)

// fixedSampler always returns the same partners, so that what a round
// allocates is core's own.
type fixedSampler []wire.NodeID

func (s fixedSampler) Sample(int) []wire.NodeID { return s }

// budgetRig drives one peer over a stub environment, on the flat route or
// the plain one.
type budgetRig struct {
	t     *testing.T
	p     *Peer
	env   *flatStubEnv
	typed bool
}

func newBudgetRig(t *testing.T, typed bool, cfg Config, layout stream.Layout) *budgetRig {
	env := &flatStubEnv{stubEnv: stubEnv{rng: rand.New(rand.NewSource(1))}}
	var e Env = &env.stubEnv
	if typed {
		e = env
	}
	p, err := NewPeer(e, cfg, fixedSampler{2, 3, 4, 5, 6, 7, 8}, layout)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	if _, boxed := p.flat.(*boxedEnv); boxed == typed {
		t.Fatalf("peer on its Env's own flat route: %v, want %v", !boxed, typed)
	}
	return &budgetRig{t: t, p: p, env: env, typed: typed}
}

// take empties the stub's timer lists and returns their one entry.
func (r *budgetRig) take() func() {
	if n := len(r.env.timers) + len(r.env.flatTimers); n != 1 {
		r.t.Fatalf("%d timers armed, want 1", n)
	}
	if r.typed {
		ft := r.env.flatTimers[0]
		r.env.flatTimers = r.env.flatTimers[:0]
		return func() { r.p.OnTimer(ft.kind, ft.arg) }
	}
	fn := r.env.timers[0]
	r.env.timers = r.env.timers[:0]
	return fn
}

// deliverIDs delivers a message over the route under test: its ids, or
// boxed.
func (r *budgetRig) deliverIDs(from wire.NodeID, kind wire.Kind, ids []stream.PacketID, boxed wire.Message) {
	if r.typed {
		r.p.HandleIDs(from, kind, ids)
	} else {
		r.p.HandleMessage(from, boxed)
	}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// TestHandlerAllocBudget holds the protocol handlers to their allocation
// budgets in steady state, one gossip period at a time: a PROPOSE of twelve
// fresh ids (what a node learns per round of the paper's stream), the
// twelve SERVEs that answer the REQUEST, the round that proposes them on,
// a REQUEST for the twelve from a partner, and the retransmission timer
// that fires to find its batch retired by the SERVEs. The retransmission
// leg withholds the SERVEs past the deadline instead, so that the check
// requests the twelve again — under RetryRandomProposer from the three
// nodes that proposed them.
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
//   - retransmission: the id list and box of each REQUEST (one per target)
//     and the closure of the timer the new batch arms.
//
// Before request state moved to a slab a PROPOSE cost 31 allocations here;
// before messages went flat the TimerEnv budgets were 2, 0, 2 and 1, and
// before the retransmission check reused its scratch it allocated an id
// list per target after the first.
func TestHandlerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	// Mallocs counts the whole process. A collection during a leg, or
	// another goroutine running beside it (the testing package's own), can
	// charge it allocations the handlers do not make.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const idsPerMessage = 12
	layout := stream.Layout{RateBps: 600_000, PayloadBytes: 64, DataPerWindow: 101, ParityPerWindow: 9, Windows: 20}
	src, err := stream.NewSource(layout, 1)
	if err != nil {
		t.Fatal(err)
	}
	pkts := src.PacketsUntil(layout.Duration())
	rounds := len(pkts) / idsPerMessage
	// The first rounds grow the slabs and scratch to their steady size; the
	// budgets are for what every later round costs.
	const warmUp = 8
	measured := float64(rounds - warmUp)
	// messages returns round i's ids, and its PROPOSE, REQUEST and SERVEs
	// boxed.
	messages := func(i int) (batch []*stream.Packet, ids []stream.PacketID, propose, request wire.Message, serves []wire.Message) {
		batch = pkts[i*idsPerMessage : (i+1)*idsPerMessage]
		ids = make([]stream.PacketID, len(batch))
		serves = make([]wire.Message, len(batch))
		for j, pkt := range batch {
			ids[j] = pkt.ID
			serves[j] = wire.Serve{Packets: batch[j : j+1]}
		}
		return batch, ids, wire.Propose{IDs: ids}, wire.Request{IDs: ids}, serves
	}
	type budget struct {
		what        string
		got, budget float64
	}
	check := func(t *testing.T, budgets ...budget) {
		for _, b := range budgets {
			t.Logf("%s allocates %.2f, budget %.2g", b.what, b.got, b.budget)
			if b.got > b.budget {
				t.Errorf("%s is over its allocation budget", b.what)
			}
		}
	}

	for _, tc := range []struct {
		name                                       string
		flat                                       bool
		propose, serve, round, request, retransmit float64
	}{
		{name: "plain-env", propose: 3, serve: 0.1, round: 2, request: 1.1, retransmit: 7},
		{name: "timer-env", flat: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newBudgetRig(t, tc.flat, DefaultConfig(), layout)
			p := r.p
			tick := r.take()
			var propose, serve, round, request uint64
			for i := 0; i < rounds; i++ {
				batch, ids, proposeMsg, requestMsg, serves := messages(i)
				m0 := mallocs()
				r.deliverIDs(2, wire.KindPropose, ids, proposeMsg)
				m1 := mallocs()
				retire := r.take()
				m2 := mallocs()
				for j := range batch {
					r.deliverIDs(2, wire.KindServe, ids[j:j+1], serves[j])
				}
				m3 := mallocs()
				tick()
				m4 := mallocs()
				r.deliverIDs(2, wire.KindRequest, ids, requestMsg)
				m5 := mallocs()
				tick = r.take()
				retire()
				if i >= warmUp {
					propose += m1 - m0
					serve += m3 - m2
					round += m4 - m3
					request += m5 - m4
				}
			}
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
			check(t,
				budget{"a 12-id PROPOSE of fresh ids", float64(propose) / measured, tc.propose},
				budget{"a SERVE of a new packet", float64(serve) / (measured * idsPerMessage), tc.serve},
				budget{"a gossip round", float64(round) / measured, tc.round},
				budget{"a 12-id REQUEST for held packets", float64(request) / measured, tc.request})

			for _, retry := range []RetryPolicy{RetrySameProposer, RetryRandomProposer} {
				t.Run(fmt.Sprintf("retransmit/retry=%d", retry), func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Retry = retry
					r := newBudgetRig(t, tc.flat, cfg, layout)
					r.take() // the gossip tick, never fired: this leg runs no rounds
					var checks uint64
					for i := 0; i < rounds; i++ {
						batch, ids, proposeMsg, _, serves := messages(i)
						for from := wire.NodeID(2); from <= 4; from++ {
							r.deliverIDs(from, wire.KindPropose, ids, proposeMsg)
						}
						fire := r.take()
						r.env.now += 2 * cfg.RetPeriod // the SERVEs are late: the check re-requests
						m0 := mallocs()
						fire()
						m1 := mallocs()
						retire := r.take()
						for j := range batch {
							r.deliverIDs(2, wire.KindServe, ids[j:j+1], serves[j])
						}
						retire()
						if i >= warmUp {
							checks += m1 - m0
						}
					}
					c := r.p.Counters()
					spread := retry == RetrySameProposer || c.Retransmissions > 2*rounds
					if c.RequestsSent != rounds+c.Retransmissions || c.RetChecks != rounds || c.Retransmissions < rounds ||
						c.RetBatchesRetired != rounds || !spread {
						t.Fatalf("the retransmission checks were not exercised as planned: %+v", c)
					}
					check(t, budget{"a retransmission check re-requesting 12 ids", float64(checks) / measured, tc.retransmit})
				})
			}
		})
	}
}

// TestPeerFootprintAllocBudget holds what a peer costs to build — all a
// peer on the flat route ever holds per id, as it keeps no packets — to
// about three bits per stream id: the known bit, the receiver's delivery
// bit and its per-window count. It builds peers of a 2-window and a
// 1,000-window stream (≈30 minutes of the paper's) and checks the bytes
// each extra id adds, the total at 1,000 windows, and that the allocation
// count does not grow with the stream. Before simulated peers stopped
// keeping packets, an id cost 100 bits: a packet pointer, a 4-byte request
// index and ≈0.5 B of window state, 1.39 MB per peer at 1,000 windows.
func TestPeerFootprintAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	build := func(windows int) (bytes, allocs float64, ids int) {
		layout := stream.DefaultLayout(windows)
		env := &stubEnv{rng: rand.New(rand.NewSource(1))}
		var sampler member.Sampler = fixedSampler{2, 3}
		newPeer := func() {
			if _, err := NewPeer(env, DefaultConfig(), sampler, layout); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(10, newPeer)
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			newPeer()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs, allocs, layout.TotalPackets()
	}
	shortBytes, shortAllocs, shortIDs := build(2)
	longBytes, longAllocs, longIDs := build(1000)
	perID := (longBytes - shortBytes) / float64(longIDs-shortIDs)
	t.Logf("a peer costs %.0f B in %.0f allocations at 2 windows, %.0f B in %.0f at 1,000: %.3f B (%.2f bits) per extra id",
		shortBytes, shortAllocs, longBytes, longAllocs, perID, 8*perID)
	if perID > 0.5 {
		t.Errorf("%.3f B per stream id, budget 0.5", perID)
	}
	if longBytes > 64<<10 {
		t.Errorf("%.0f B per peer at 1,000 windows, budget 64 KiB", longBytes)
	}
	if longAllocs != shortAllocs || longAllocs > 6 {
		t.Errorf("%.0f allocations at 2 windows, %.0f at 1,000: want the same, at most 6", shortAllocs, longAllocs)
	}
}
