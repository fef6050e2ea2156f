package megasim

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"gossipstream/internal/pss"
	"gossipstream/internal/shaping"
	"gossipstream/internal/simnet"
	"gossipstream/internal/stream"
	"gossipstream/internal/wire"
)

// Runtime admission coverage: nodes admitted from AtBarrier callbacks must
// exchange traffic both ways, keep replay determinism, respect the
// lookahead bound, bootstrap into live Cyclon views within a bounded
// number of periods, and age out gracefully when their seeds are dead.

// ping is a tiny non-shuffle message for admission flow tests.
func ping() wire.Message { return wire.Propose{IDs: []stream.PacketID{1}} }

// responder records deliveries like recorder and echoes a ping back to the
// sender once.
type responder struct {
	recorder
	echoed bool
}

func (r *responder) HandleMessage(from NodeID, msg wire.Message) {
	r.recorder.HandleMessage(from, msg)
	if !r.echoed {
		r.echoed = true
		r.env.Send(from, ping())
	}
}

// TestAdmitNodeAtBarrier: a node admitted mid-run sends and receives like
// any setup-time node, and its stats are counted.
func TestAdmitNodeAtBarrier(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e, err := New(Config{Shards: shards, Net: flatNet(time.Millisecond)})
			if err != nil {
				t.Fatal(err)
			}
			r0 := &responder{}
			r0.env = e.NodeEnv(0, NewRand(1))
			e.AddNode(r0, shaping.Unlimited, 0)

			r1 := &recorder{}
			e.AtBarrier(50*time.Millisecond, func() {
				id := e.AddNode(r1, shaping.Unlimited, 0)
				if id != 1 {
					t.Errorf("admitted id = %d, want 1", id)
				}
				r1.env = e.NodeEnv(id, NewRand(2))
				// The admitted node speaks first; node 0 answers.
				r1.env.After(10*time.Millisecond, func() {
					r1.env.Send(0, ping())
				})
			})
			if err := e.Run(time.Second); err != nil {
				t.Fatal(err)
			}
			if len(r0.froms) != 1 || r0.froms[0] != 1 {
				t.Fatalf("node 0 received %v, want one message from 1", r0.froms)
			}
			if len(r1.froms) != 1 || r1.froms[0] != 0 {
				t.Fatalf("admitted node received %v, want one message from 0", r1.froms)
			}
			// The admitted node's first send departs at barrier+10ms, never
			// in the shard's past.
			if r0.at[0] < 50*time.Millisecond {
				t.Fatalf("delivery at %v predates the admission barrier", r0.at[0])
			}
			if got := e.NodeStats(1).SentMsgs[wire.KindPropose]; got != 1 {
				t.Fatalf("admitted node SentMsgs = %d, want 1", got)
			}
			if !e.Alive(1) {
				t.Fatal("admitted node not alive")
			}
		})
	}
}

// TestAdmitNodeDeterministicReplay: runtime admission draws from the setup
// streams in barrier order, so replays stay bit-identical.
func TestAdmitNodeDeterministicReplay(t *testing.T) {
	run := func() ([]time.Duration, []simnet.Stats, uint64) {
		cfg := pss.Config{ViewSize: 8, ShuffleLen: 4, Period: 100 * time.Millisecond}
		e, states := membershipOverlay(t, 30, 3, 17, cfg, simnet.Config{
			BaseLatencyMedian: 5 * time.Millisecond,
			BaseLatencySigma:  0.4,
			JitterFrac:        0.2,
			PairSpread:        0.2,
			LossRate:          0.02,
		})
		for i := 0; i < 5; i++ {
			i := i
			at := time.Duration(i+1) * 300 * time.Millisecond
			e.AtBarrier(at, func() {
				id := e.AddNode(sink{}, shaping.Unlimited, 0)
				st, err := pss.NewState(id, cfg, 1000+int64(i), []wire.NodeID{0, 1, 2, 3})
				if err != nil {
					t.Error(err)
					return
				}
				states = append(states, st)
				e.AttachSampler(id, st, cfg.Period)
			})
		}
		if err := e.Run(3 * time.Second); err != nil {
			t.Fatal(err)
		}
		bases := make([]time.Duration, e.N())
		stats := make([]simnet.Stats, e.N())
		for i := 0; i < e.N(); i++ {
			bases[i] = e.BaseLatency(NodeID(i))
			stats[i] = e.NodeStats(NodeID(i))
		}
		return bases, stats, e.Fired()
	}
	ba, sa, fa := run()
	bb, sb, fb := run()
	if fa != fb {
		t.Fatalf("fired %d vs %d across replays", fa, fb)
	}
	if !reflect.DeepEqual(ba, bb) {
		t.Fatal("admitted base latencies differ across replays")
	}
	if !reflect.DeepEqual(sa, sb) {
		t.Fatal("per-node stats differ across replays")
	}
}

// TestAdmitNodeRespectsLookahead: with a heavy-tailed latency draw, nodes
// admitted at runtime must never undercut the lookahead fixed at Run — the
// conservative window bound would silently break.
func TestAdmitNodeRespectsLookahead(t *testing.T) {
	net := simnet.Config{
		BaseLatencyMedian: 20 * time.Millisecond,
		BaseLatencySigma:  2.5, // wide lognormal: unclamped draws would undercut
		JitterFrac:        0.3,
		PairSpread:        0.3,
	}
	e, err := New(Config{Shards: 2, Seed: 9, Net: net})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		e.AddNode(sink{}, shaping.Unlimited, 0)
	}
	const admitted = 256
	e.AtBarrier(10*time.Millisecond, func() {
		for i := 0; i < admitted; i++ {
			e.AddNode(sink{}, shaping.Unlimited, 0)
		}
	})
	if err := e.Run(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	bound := float64(e.Lookahead())
	clamped := 0
	for i := 8; i < 8+admitted; i++ {
		pairMin := float64(e.BaseLatency(NodeID(i))) * (1 - net.PairSpread) * (1 - net.JitterFrac)
		if pairMin < bound {
			t.Fatalf("admitted node %d: worst-case pair latency %.0fns undercuts lookahead %.0fns", i, pairMin, bound)
		}
		if pairMin < bound*1.01 {
			clamped++
		}
	}
	if clamped == 0 {
		t.Fatal("no admitted draw was clamped — sigma too small to exercise the bound")
	}
}

// TestAdmitPanicsOutsideBarrier: topology stays frozen outside setup and
// barrier callbacks.
func TestAdmitPanicsOutsideBarrier(t *testing.T) {
	e, err := New(Config{Shards: 1, Net: flatNet(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	e.AddNode(sink{}, shaping.Unlimited, 0)
	if err := e.Run(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AddNode after Run did not panic")
		}
	}()
	e.AddNode(sink{}, shaping.Unlimited, 0)
}

// TestAdmitBootstrapConvergence is the bootstrap regression: a node
// admitted mid-run with a handful of live seed descriptors must fill its
// Cyclon view to the bound and plant its own descriptor in live views
// within a bounded number of shuffle periods.
func TestAdmitBootstrapConvergence(t *testing.T) {
	cfg := pss.Config{ViewSize: 8, ShuffleLen: 4, Period: 100 * time.Millisecond}
	const n = 60
	e, states := membershipOverlay(t, n, 3, 21, cfg, flatNet(5*time.Millisecond))
	var joined *pss.State
	const joinAt = 2 * time.Second
	e.AtBarrier(joinAt, func() {
		id := e.AddNode(sink{}, shaping.Unlimited, 0)
		st, err := pss.NewState(id, cfg, 4242, []wire.NodeID{3, 11, 19, 27})
		if err != nil {
			t.Error(err)
			return
		}
		joined = st
		e.AttachSampler(id, st, cfg.Period)
	})
	// Bounded convergence: 20 periods after the join.
	if err := e.Run(joinAt + 20*cfg.Period); err != nil {
		t.Fatal(err)
	}
	if joined == nil {
		t.Fatal("join barrier never ran")
	}
	if got := len(joined.View()); got != cfg.ViewSize {
		t.Fatalf("joined node's view holds %d descriptors after 20 periods, want %d", got, cfg.ViewSize)
	}
	if joined.ShufflesSent() == 0 {
		t.Fatal("joined node never shuffled")
	}
	indeg := 0
	for _, st := range states {
		for _, entry := range st.View() {
			if entry.ID == NodeID(n) {
				indeg++
			}
		}
	}
	if indeg == 0 {
		t.Fatal("no live view holds the joined node's descriptor after 20 periods")
	}
}

// TestAdmitWithDeadSeedsAgesOut: a node that joins in the same barrier that
// kills all its seed nodes must drain its view and fall silent — shuffles
// to the dead are fire-and-forget, so nothing wedges — instead of spinning
// on descriptors that will never answer.
func TestAdmitWithDeadSeedsAgesOut(t *testing.T) {
	cfg := pss.Config{ViewSize: 8, ShuffleLen: 4, Period: 100 * time.Millisecond}
	const n = 40
	e, _ := membershipOverlay(t, n, 2, 33, cfg, flatNet(5*time.Millisecond))
	seeds := []wire.NodeID{5, 6, 7, 8}
	var joined *pss.State
	e.AtBarrier(time.Second, func() {
		for _, s := range seeds {
			e.Crash(s)
		}
		id := e.AddNode(sink{}, shaping.Unlimited, 0)
		st, err := pss.NewState(id, cfg, 777, seeds)
		if err != nil {
			t.Error(err)
			return
		}
		joined = st
		e.AttachSampler(id, st, cfg.Period)
	})
	if err := e.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if joined == nil {
		t.Fatal("join barrier never ran")
	}
	// Each tick sheds one dead seed into the void; after len(seeds) ticks
	// the view is empty and Tick goes quiet.
	if got := len(joined.View()); got != 0 {
		t.Fatalf("view still holds %d descriptors of dead seeds", got)
	}
	if sent := joined.ShufflesSent(); sent != len(seeds) {
		t.Fatalf("joined node sent %d shuffles, want exactly %d (one per dead seed, then silence)", sent, len(seeds))
	}
}
