package megasim

import (
	"testing"
	"time"

	"gossipstream/internal/pss"
	"gossipstream/internal/shaping"
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
