package megasim

import (
	"testing"
	"time"

	"gossipstream/internal/pss"
	"gossipstream/internal/shaping"
	"gossipstream/internal/simnet"
	"gossipstream/internal/wire"
)

// TestGracefulLeaveDeliversDespiteCrash pins the one dead-source delivery
// exemption: a LEAVE sent at the barrier that crashes its sender still
// reaches its targets (the farewell is the point of the message), while
// any other kind from the same dead sender dead-drops as before. The
// shuffle period is far beyond the run, so the LEAVEs are the only
// membership traffic and every counter below is exact.
func TestGracefulLeaveDeliversDespiteCrash(t *testing.T) {
	e, err := New(Config{Shards: 2, Seed: 9, Net: flatNet(5 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	cfg := pss.Config{ViewSize: 4, ShuffleLen: 2, Period: time.Hour}
	boots := [][]wire.NodeID{{1, 2}, {0, 2}, {0, 1}}
	states := make([]*pss.State, 3)
	for i, boot := range boots {
		states[i], err = pss.NewState(wire.NodeID(i), cfg, int64(i)+1, boot)
		if err != nil {
			t.Fatal(err)
		}
		e.AddNode(sink{}, shaping.Unlimited, 0)
		e.AttachSampler(NodeID(i), states[i], cfg.Period)
	}

	e.AtBarrier(time.Second, func() {
		// A control shuffle from the departing node: counted sent while
		// alive, but its source is dead at delivery time, so it must
		// dead-drop — only LEAVE is exempt.
		e.SendFrom(1, 2, wire.Shuffle{Entries: []wire.ShuffleEntry{{ID: 1}}})
		for _, em := range states[1].Goodbye() {
			e.SendFrom(1, em.To, em.Msg)
		}
		e.Crash(1)
	})
	if err := e.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	for _, id := range []NodeID{0, 2} {
		if got := e.NodeStats(id).RecvMsgs[wire.KindLeave]; got != 1 {
			t.Fatalf("node %d received %d LEAVEs, want 1 (dead-source drop ate the farewell?)", id, got)
		}
		for _, entry := range states[id].View() {
			if entry.ID == 1 {
				t.Fatalf("node %d still holds the departed descriptor after its LEAVE", id)
			}
		}
	}
	if got := e.NodeStats(2).RecvMsgs[wire.KindShuffle]; got != 0 {
		t.Fatalf("control shuffle from the dead sender was delivered (%d recv)", got)
	}
	if got := e.NodeStats(2).DeadDrops; got != 1 {
		t.Fatalf("node 2 DeadDrops = %d, want 1 (the control shuffle)", got)
	}
	// The exemption is for dead sources only: a LEAVE to a dead
	// destination still drops, and conservation holds — every message
	// sent was received or dead-dropped.
	total := e.TotalStats()
	sent := total.SentMsgs[wire.KindLeave] + total.SentMsgs[wire.KindShuffle]
	recv := total.RecvMsgs[wire.KindLeave] + total.RecvMsgs[wire.KindShuffle]
	if sent != recv+total.DeadDrops {
		t.Fatalf("conservation broken: %d sent, %d received, %d dead drops", sent, recv, total.DeadDrops)
	}
}

// TestLeaveDeliversAfterItsSendersSlotIsReused: a departing node's LEAVEs
// wait behind a backlog on its uplink, and its slot is reused before they
// leave it. They still reach their live destinations' samplers, which drop
// the departed descriptor, while a control SHUFFLE from the same sender,
// the backlog itself, dead-drops; the slot's new occupant sees none of it.
func TestLeaveDeliversAfterItsSendersSlotIsReused(t *testing.T) {
	for _, shards := range []int{1, 2} {
		e, err := New(Config{Shards: shards, Seed: 9, Net: flatNet(5 * time.Millisecond)})
		if err != nil {
			t.Fatal(err)
		}
		cfg := pss.Config{ViewSize: 4, ShuffleLen: 2, Period: time.Hour}
		boots := [][]wire.NodeID{{1, 2}, {0, 2}, {0, 1}}
		states := make([]*pss.State, 3)
		for i, boot := range boots {
			states[i], err = pss.NewState(wire.NodeID(i), cfg, int64(i)+1, boot)
			if err != nil {
				t.Fatal(err)
			}
			// Node 1's uplink sends 1 KB/s.
			up := int64(shaping.Unlimited)
			if i == 1 {
				up = 8000
			}
			e.AddNode(sink{}, up, 1<<20)
			e.AttachSampler(NodeID(i), states[i], cfg.Period)
		}
		e.AtBarrier(time.Second, func() {
			// The control SHUFFLE's 128 application bytes hold node 1's
			// uplink for 128 ms, ten lookaheads; the LEAVEs queue behind it.
			entries := make([]wire.ShuffleEntry, 20)
			for i := range entries {
				entries[i].ID = 1
			}
			e.SendFrom(1, 2, wire.Shuffle{Entries: entries})
			for _, em := range states[1].Goodbye() {
				e.SendFrom(1, em.To, em.Msg)
			}
			e.Crash(1)
		})
		var reused NodeID
		e.AtBarrier(time.Second+20*time.Millisecond, func() {
			if reused = e.AddNode(sink{}, shaping.Unlimited, 0); reused != makeID(1, 1) {
				t.Fatalf("%d shards: AddNode minted %d, want slot 1 at generation 1", shards, reused)
			}
		})
		if err := e.Run(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		for _, id := range []NodeID{0, 2} {
			if got := e.NodeStats(id).RecvMsgs[wire.KindLeave]; got != 1 {
				t.Fatalf("%d shards: node %d received %d LEAVEs, want 1", shards, id, got)
			}
			for _, entry := range states[id].View() {
				if entry.ID == 1 {
					t.Fatalf("%d shards: node %d still holds the departed descriptor after its LEAVE", shards, id)
				}
			}
		}
		if st := e.NodeStats(2); st.RecvMsgs[wire.KindShuffle] != 0 || st.DeadDrops != 1 {
			t.Fatalf("%d shards: node 2 received %d SHUFFLEs and dead-dropped %d, want 0 and 1 (the control SHUFFLE)",
				shards, st.RecvMsgs[wire.KindShuffle], st.DeadDrops)
		}
		if st := e.NodeStats(reused); st != (simnet.Stats{}) {
			t.Fatalf("%d shards: the slot's new occupant was charged: %+v", shards, st)
		}
		if e.StaleDrops() != 0 {
			t.Fatalf("%d shards: %d stale drops, want none", shards, e.StaleDrops())
		}
		assertConserved(t, e.TotalStats())
	}
}

// TestLeaveToDeadDestinationDrops: the exemption must not resurrect
// deliveries into crashed nodes — a LEAVE addressed to a dead destination
// dead-drops like everything else.
func TestLeaveToDeadDestinationDrops(t *testing.T) {
	e, err := New(Config{Shards: 1, Seed: 3, Net: flatNet(5 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	st, err := pss.NewState(1, pss.Config{ViewSize: 4, ShuffleLen: 2, Period: time.Hour}, 1, []wire.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	e.AddNode(sink{}, shaping.Unlimited, 0)
	e.AddNode(sink{}, shaping.Unlimited, 0)
	e.AttachSampler(1, st, time.Hour)
	e.AtBarrier(time.Second, func() {
		e.Crash(0)
		e.SendFrom(1, 0, wire.Leave{})
	})
	if err := e.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := e.NodeStats(0).RecvMsgs[wire.KindLeave]; got != 0 {
		t.Fatalf("dead destination received %d LEAVEs, want 0", got)
	}
	if got := e.NodeStats(0).DeadDrops; got != 1 {
		t.Fatalf("dead destination DeadDrops = %d, want 1", got)
	}
}
