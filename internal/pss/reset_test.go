package pss

import (
	"fmt"
	"slices"
	"testing"

	"gossipstream/internal/wire"
	"gossipstream/internal/xrand"
)

// playScript drives s with a script of ticks, shuffle requests and
// replies, LEAVEs and samples drawn from a stream seeded script, and
// returns everything the record said: each emission (target, direction,
// entries), each sample, its view after every step, and its counters.
func playScript(s *State, script int64, steps int) []string {
	rng := xrand.Seeded(script)
	var log []string
	emit := func(em string, ok bool) {
		if !ok {
			em = "silent"
		}
		log = append(log, em)
	}
	for i := 0; i < steps; i++ {
		switch rng.Intn(5) {
		case 0:
			em, ok := s.Tick()
			emit(emitString(em.To, em.Msg), ok)
		case 1, 2:
			entries := make([]wire.ShuffleEntry, 1+rng.Intn(8))
			for j := range entries {
				entries[j] = wire.ShuffleEntry{ID: wire.NodeID(rng.Intn(40)), Age: uint16(rng.Intn(6))}
			}
			em, ok := s.Handle(wire.NodeID(rng.Intn(40)), &wire.Shuffle{Reply: rng.Intn(2) == 0, Entries: entries})
			emit(emitString(em.To, em.Msg), ok)
		case 3:
			em, ok := s.Handle(wire.NodeID(rng.Intn(40)), wire.Leave{})
			emit(emitString(em.To, em.Msg), ok)
		case 4:
			log = append(log, fmt.Sprint("sample ", s.SampleInto(nil, 1+rng.Intn(6))))
		}
		log = append(log, fmt.Sprint("view ", s.View()))
	}
	return append(log, fmt.Sprint("counters ", s.ShufflesSent(), s.ShufflesAnswered(), s.Stopped()))
}

// emitString renders one emission.
func emitString(to wire.NodeID, msg wire.Message) string {
	if sh, ok := msg.(*wire.Shuffle); ok {
		return fmt.Sprint("to ", to, " reply ", sh.Reply, " ", sh.Entries)
	}
	return fmt.Sprint("to ", to, " ", msg)
}

// TestResetActsFresh holds Reset to its promise: a record that has run —
// under another configuration, with tombstones, pending ids and emission
// scratch of its own, stopped or not — says exactly what a new record
// says under one script once reset to the new record's arguments, and a
// reset record that has run under the same configuration allocates
// nothing.
func TestResetActsFresh(t *testing.T) {
	cfg := Config{ViewSize: 12, ShuffleLen: 5, Period: 1}
	boot := []wire.NodeID{2, 5, 7, 11, 13, 3}
	for _, dirty := range []Config{cfg, {ViewSize: 30, ShuffleLen: 9, Period: 1}, {ViewSize: 4, ShuffleLen: 2, Period: 1}} {
		for _, stop := range []bool{false, true} {
			t.Run(fmt.Sprintf("after-%d-%d/stopped=%v", dirty.ViewSize, dirty.ShuffleLen, stop), func(t *testing.T) {
				fresh, err := NewState(3, cfg, 77, boot)
				if err != nil {
					t.Fatal(err)
				}
				want := playScript(fresh, 5, 400)

				used, err := NewState(9, dirty, 1, []wire.NodeID{1, 2, 4, 8})
				if err != nil {
					t.Fatal(err)
				}
				playScript(used, 6, 300)
				if stop {
					used.Goodbye()
				}
				if err := used.Reset(3, cfg, 77, boot); err != nil {
					t.Fatal(err)
				}
				if got := playScript(used, 5, 400); !slices.Equal(got, want) {
					for i := range min(len(got), len(want)) {
						if got[i] != want[i] {
							t.Fatalf("step %d: the reset record says %q, a new one %q", i, got[i], want[i])
						}
					}
					t.Fatalf("the reset record says %d things, a new one %d", len(got), len(want))
				}
			})
		}
	}
	st, err := NewState(3, cfg, 77, boot)
	if err != nil {
		t.Fatal(err)
	}
	playScript(st, 5, 400)
	if allocs := testing.AllocsPerRun(20, func() {
		if err := st.Reset(4, cfg, 78, boot); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a reset of a record that has run allocates %.1f times, want 0", allocs)
	}
	if err := new(State).Reset(3, Config{}, 1, boot); err == nil {
		t.Fatal("Reset accepted an invalid configuration")
	}
}

// TestLentRecordActsFresh holds Lend to its promise: a zero record lent
// backings of the lengths Config.Backings names, over contents left by an
// earlier tenant, is reset without allocating and then says exactly what
// a new record says; and it keeps the lent backings.
func TestLentRecordActsFresh(t *testing.T) {
	cfg := Config{ViewSize: 12, ShuffleLen: 5, Period: 1}
	boot := []wire.NodeID{2, 5, 7, 11, 13, 3}
	fresh, err := NewState(3, cfg, 77, boot)
	if err != nil {
		t.Fatal(err)
	}
	want := playScript(fresh, 5, 400)

	n, m := cfg.Backings()
	entries, ids := make([]wire.ShuffleEntry, n), make([]wire.NodeID, m)
	for i := range entries {
		entries[i] = wire.ShuffleEntry{ID: 99, Age: 9}
	}
	for i := range ids {
		ids[i] = 99
	}
	var lent State
	if allocs := testing.AllocsPerRun(1, func() {
		lent = State{}
		lent.Lend(cfg, entries, ids)
		if err := lent.Reset(3, cfg, 77, boot); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("resetting a record lent its backings allocates %.1f times, want 0", allocs)
	}
	if got := playScript(&lent, 5, 400); !slices.Equal(got, want) {
		t.Fatal("a record lent used backings does not act as a new one")
	}
	if &lent.view[:1][0] != &entries[0] || &lent.pending[:1][0] != &ids[0] {
		t.Fatal("the record let go of the backings it was lent")
	}
}
