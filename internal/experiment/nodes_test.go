package experiment

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"gossipstream/internal/churn"
	"gossipstream/internal/megasim"
	"gossipstream/internal/wire"
	"gossipstream/internal/xrand"
)

// nodesCfg is a Cyclon deployment of n nodes on the given shards whose
// stream runs about simFor, less a fifth of drain.
func nodesCfg(n, shards int, simFor time.Duration) Config {
	cfg := Defaults()
	cfg.Seed = 5
	cfg.Nodes = n
	cfg.Shards = shards
	cfg.Membership = MembershipCyclon
	window := cfg.Layout.Duration() / time.Duration(cfg.Layout.Windows)
	cfg.Layout.Windows = max(int(simFor*4/5/window), 1)
	cfg.Drain = simFor - cfg.Layout.Duration()
	return cfg
}

// admitRecycled runs cfg with cycles rounds of churn at its barriers: k
// crash-leaves at 2c+2 s, then k admissions at 2c+3 s, each into a slot
// the leaves freed. It calls admitted after each admission with the
// admitted node's handle and what the admission allocated.
func admitRecycled(t *testing.T, cfg Config, cycles, k int, admitted func(d *deployment, cycle int, id wire.NodeID, mallocs uint64)) {
	t.Helper()
	d, err := newDeployment(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(99)
	var ms runtime.MemStats
	mallocs := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	for c := 0; c < cycles; c++ {
		leave, join := time.Duration(2+2*c)*time.Second, time.Duration(3+2*c)*time.Second
		d.eng.AtBarrier(leave, func() {
			for range k {
				d.leave(leave, rng)
			}
		})
		d.eng.AtBarrier(join, func() {
			for range k {
				id := d.eng.PeekNextID()
				if megasim.Gen(id) == 0 {
					t.Errorf("cycle %d: admission %d takes a fresh slot, not a recycled one", c, id)
				}
				m0 := mallocs()
				d.admit(join, rng)
				admitted(d, c, id, mallocs()-m0)
			}
		})
	}
	if _, err := d.run(); err != nil {
		t.Fatal(err)
	}
}

// TestJoinAllocBudget holds a Cyclon admission into a recycled slot to no
// allocation at all, once the first rounds of churn have warmed the
// engine's queues and free lists: the slot's node record — peer, random
// stream, Cyclon record — is rebuilt in place, the peer keeps its table's
// blocks, and its environment is the engine's for the slot.
func TestJoinAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	// Mallocs counts the whole process: no collection and no other
	// goroutine may charge the admissions theirs.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const warmUp = 2
	measured := 0
	admitRecycled(t, nodesCfg(200, 1, 16*time.Second), 6, 4, func(_ *deployment, cycle int, id wire.NodeID, mallocs uint64) {
		if cycle < warmUp {
			return
		}
		measured++
		if mallocs != 0 {
			t.Errorf("cycle %d: admitting node %d into a recycled slot allocated %d times, want 0", cycle, id, mallocs)
		}
	})
	if measured == 0 {
		t.Fatal("no admission was measured")
	}
}

// TestRecycledSlotRandIsNewRand: the node admitted into a recycled slot
// draws, from the stream its slot's record holds, exactly what
// megasim.NewRand of its seed draws, for a thousand draws — its
// predecessor's draws leave no trace.
func TestRecycledSlotRandIsNewRand(t *testing.T) {
	cfg := nodesCfg(60, 2, 10*time.Second)
	checked := 0
	admitRecycled(t, cfg, 3, 3, func(d *deployment, _ int, id wire.NodeID, _ uint64) {
		want := megasim.NewRand(cfg.Seed<<20 + int64(id))
		want.Int63n(int64(cfg.Protocol.GossipPeriod)) // Start's draw: the first round's phase
		got := &d.nodes[megasim.Slot(id)].rng
		for i := range 1000 {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("node %d: draw %d is %d, megasim.NewRand's is %d", id, i, g, w)
			}
		}
		checked++
	})
	if checked == 0 {
		t.Fatal("no admission was checked")
	}
}

// TestChurnKeepsTablesBounded runs sustained churn — 400 nodes, 2% of them
// joining and 2% leaving per second while a 96-second stream plays, on two
// shards, two simulated minutes in all — and reads every shard's
// core.Table every five seconds. What a table lends must not grow beyond
// what its live peers hold: its records and batches are exactly those its
// live peers have in flight, a departed peer having given its own back at
// its crash. Its blocks are a fixed number per slot the shard has used,
// recycled slots included, so blocks per slot never rise in the second
// minute above the first's. (Ids in flight themselves keep rising under
// sustained churn, by about a fifth from the first minute of a stream to
// the second, so the check is an exact account rather than a bound.)
func TestChurnKeepsTablesBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("two simulated minutes of churn")
	}
	const (
		nodes  = 400
		shards = 2
		span   = 120 * time.Second
		every  = 5 * time.Second
	)
	cfg := nodesCfg(nodes, shards, span)
	proc := churn.SustainedPoisson(0.02*nodes, 0.02*nodes)
	cfg.ChurnProcess = &proc
	d, err := newDeployment(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.schedule(); err != nil {
		t.Fatal(err)
	}
	end := cfg.Layout.Duration() + cfg.Drain
	type reading struct {
		at                      time.Duration
		records, batches        int // lent by the table
		ids, armed, slots, live int // held by its live peers, on its slots
		blocks                  int
	}
	readings := make([][]reading, shards)
	read := func(at time.Duration) {
		for s := range d.shards {
			r := reading{at: at}
			r.records, r.batches, r.blocks = d.shards[s].tab.InUse()
			for slot, n := range d.nodes {
				if shard, _ := d.eng.ShardOf(wire.NodeID(slot)); shard != s {
					continue
				}
				if r.slots++; n != nil {
					ids, batches := n.peer.InFlight()
					r.ids, r.armed, r.live = r.ids+ids, r.armed+batches, r.live+1
				}
			}
			readings[s] = append(readings[s], r)
		}
	}
	for at := every; at < end; at += every {
		d.eng.AtBarrier(at, func() { read(at) })
	}
	d.eng.AtBarrier(end, func() { read(end) })
	res, err := d.run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Streaming.Joined < 600 || res.Streaming.Departed < 600 {
		t.Fatalf("%d joins and %d departures: the churn did not run", res.Streaming.Joined, res.Streaming.Departed)
	}
	for s, rs := range readings {
		perSlot := 0.0
		for _, r := range rs {
			where := fmt.Sprintf("shard %d at %v", s, r.at)
			if r.records != r.ids || r.batches != r.armed {
				t.Errorf("%s: the table lends %d records and %d batches, its %d live peers hold %d and %d", where, r.records, r.batches, r.live, r.ids, r.armed)
			}
			got := float64(r.blocks) / float64(r.slots)
			if r.at <= span/2 {
				perSlot = max(perSlot, got)
			} else if got > perSlot {
				t.Errorf("%s: %.2f blocks per slot, against at most %.2f in the first minute", where, got, perSlot)
			}
		}
		last := rs[len(rs)-1]
		peak := 0
		for _, r := range rs {
			peak = max(peak, r.records)
		}
		t.Logf("shard %d: at most %d records in flight; %.2f blocks per slot, %d over %d slots at the end", s, peak, perSlot, last.blocks, last.slots)
	}
}
