package pss

import (
	"encoding/binary"
	"testing"

	"gossipstream/internal/wire"
)

// FuzzStateMerge drives a State with an arbitrary interleaving of Tick
// rounds and inbound shuffle requests/replies decoded from fuzz data, and
// asserts the view invariants the rest of the stack leans on after every
// operation:
//
//   - the view never exceeds its bound;
//   - the node never holds its own descriptor;
//   - no node id appears twice;
//   - everything the state emits (requests and replies) is itself a
//     well-formed shuffle: bounded, duplicate-free, and — replies only —
//     free of the self-descriptor (a request deliberately carries it).
//
// Example-based merge tests cover the happy paths; this hunts for corner
// interleavings (hostile ages, self-descriptors in inbound samples,
// overflow eviction racing duplicate suppression).
// FuzzStateLeave drives a State with an arbitrary interleaving of LEAVE
// announcements, shuffle requests/replies, and Tick rounds, and asserts
// the graceful-departure invariants on top of FuzzStateMerge's view
// checks:
//
//   - a departed node never resurrects: once a LEAVE for id X is handled,
//     X stays out of the view no matter what later shuffles carry —
//     strictly checkable here because the op stream is capped below the
//     tombstone FIFO's capacity, so no tombstone is ever evicted;
//   - handling a LEAVE never emits (a farewell is not answered);
//   - Goodbye announces to current view members only, at most once each,
//     never to self, and leaves the state stopped and silent.
func FuzzStateLeave(f *testing.F) {
	f.Add(int64(1), []byte{0x02, 0x01, 0x03, 0x05, 0x00, 0x01, 0x07, 0x02})
	f.Add(int64(9), []byte{
		0x13, 0x05,
		0x03, 0x01, // leave from node 1
		0x01, 0x04, 0x02, 0x01, 0x00, 0x00, 0x02, 0x00, 0x00, // shuffle carrying node 1 back
		0x00, // tick
	})
	f.Add(int64(23), []byte{0x1F, 0x08, 0x03, 0x03, 0x03, 0x04, 0x03, 0x05, 0x00, 0x00, 0x03, 0x01})

	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		cfg := Config{
			ViewSize:   1 + int(data[0]%31),
			ShuffleLen: 1,
			Period:     1,
		}
		cfg.ShuffleLen = 1 + int(data[1])%cfg.ViewSize
		const self wire.NodeID = 3
		const population = 16
		st, err := NewState(self, cfg, seed, []wire.NodeID{1, 2, 4, 5})
		if err != nil {
			t.Fatal(err)
		}

		departed := make(map[wire.NodeID]bool)
		leaveBudget := tombCap*cfg.ViewSize - 1 // never evict a tombstone
		checkView := func(op string) {
			t.Helper()
			view := st.View()
			if len(view) > cfg.ViewSize {
				t.Fatalf("%s: %d entries exceed bound %d", op, len(view), cfg.ViewSize)
			}
			for _, e := range view {
				if e.ID == self {
					t.Fatalf("%s: holds self-descriptor", op)
				}
				if departed[e.ID] {
					t.Fatalf("%s: departed node %d resurrected in the view", op, e.ID)
				}
			}
		}

		data = data[2:]
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			switch op % 4 {
			case 0:
				st.Tick()
			case 3:
				// One LEAVE. The announcement is terminal traffic: handling
				// it must not emit anything.
				if len(data) < 1 {
					break
				}
				from := wire.NodeID(data[0] % population)
				data = data[1:]
				if from == self || leaveBudget == 0 {
					continue
				}
				leaveBudget--
				if _, ok := st.Handle(from, wire.Leave{}); ok {
					t.Fatal("handling a LEAVE emitted a reply")
				}
				departed[from] = true
			default:
				// One inbound shuffle, possibly carrying departed ids.
				if len(data) < 2 {
					break
				}
				from := wire.NodeID(data[0] % population)
				n := int(data[1]) % (cfg.ShuffleLen + 3)
				data = data[2:]
				entries := make([]wire.ShuffleEntry, 0, n)
				for i := 0; i < n && len(data) >= 3; i++ {
					entries = append(entries, wire.ShuffleEntry{
						ID:  wire.NodeID(data[0] % population),
						Age: binary.LittleEndian.Uint16(data[1:3]),
					})
					data = data[3:]
				}
				st.Handle(from, wire.Shuffle{Reply: op%4 == 1, Entries: entries})
			}
			checkView("view")
		}

		// Goodbye: announce to every current view member exactly once,
		// then go silent.
		view := st.View()
		emits := st.Goodbye()
		if len(emits) != len(view) {
			t.Fatalf("Goodbye emitted %d farewells for a %d-entry view", len(emits), len(view))
		}
		inView := make(map[wire.NodeID]bool, len(view))
		for _, e := range view {
			inView[e.ID] = true
		}
		seen := make(map[wire.NodeID]bool, len(emits))
		for _, em := range emits {
			if _, ok := em.Msg.(wire.Leave); !ok {
				t.Fatalf("Goodbye emitted %T, want wire.Leave", em.Msg)
			}
			if em.To == self {
				t.Fatal("Goodbye targeted self")
			}
			if !inView[em.To] {
				t.Fatalf("Goodbye targeted %d, which is not in the view", em.To)
			}
			if seen[em.To] {
				t.Fatalf("Goodbye targeted %d twice", em.To)
			}
			seen[em.To] = true
		}
		if !st.Stopped() {
			t.Fatal("state not stopped after Goodbye")
		}
		if _, ok := st.Tick(); ok {
			t.Fatal("stopped state still ticking after Goodbye")
		}
		if emits := st.Goodbye(); emits != nil {
			t.Fatal("second Goodbye announced again")
		}
	})
}

func FuzzStateMerge(f *testing.F) {
	f.Add(int64(1), []byte{0x00, 0x01, 0x02})
	f.Add(int64(7), []byte{
		0x13, 0x05, 0x02, 0xFF, 0x07, 0x00, 0x00, // handle: entries with odd ids/ages
		0x00,                   // tick
		0x80, 0x03, 0x01, 0x02, // reply-flagged handle
	})
	f.Add(int64(42), []byte{0x00, 0x00, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0x55, 0xAA})

	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		cfg := Config{
			ViewSize:   1 + int(data[0]%31),
			ShuffleLen: 1,
			Period:     1, // unused by State itself
		}
		cfg.ShuffleLen = 1 + int(data[1])%cfg.ViewSize
		const self wire.NodeID = 3
		const population = 16 // small id space: collisions and self-hits are common
		st, err := NewState(self, cfg, seed, []wire.NodeID{1, 2, 4, 5})
		if err != nil {
			t.Fatal(err)
		}

		check := func(op string, view []wire.ShuffleEntry, allowSelf bool, bound int) {
			if len(view) > bound {
				t.Fatalf("%s: %d entries exceed bound %d", op, len(view), bound)
			}
			seen := make(map[wire.NodeID]bool, len(view))
			for _, e := range view {
				if e.ID == self && !allowSelf {
					t.Fatalf("%s: holds self-descriptor", op)
				}
				if e.ID != self && seen[e.ID] {
					t.Fatalf("%s: duplicate descriptor for node %d", op, e.ID)
				}
				seen[e.ID] = true
			}
		}

		data = data[2:]
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			if op%4 == 0 {
				// One shuffle round. The emitted request may carry the
				// self-descriptor (by design, exactly once) but must obey
				// the other invariants.
				if em, ok := st.Tick(); ok {
					sh := shuffleOf(t, em.Msg)
					if sh.Reply {
						t.Fatal("tick emitted a reply-flagged shuffle")
					}
					check("tick emission", sh.Entries, true, cfg.ShuffleLen)
					if em.To == self {
						t.Fatal("tick targeted self")
					}
				}
			} else {
				// One inbound message: from, reply flag, and up to
				// ShuffleLen+2 entries decoded from the stream (ids may
				// collide, include self, or be outside the bootstrap set;
				// ages may be hostile).
				if len(data) < 2 {
					break
				}
				from := wire.NodeID(data[0] % population)
				n := int(data[1]) % (cfg.ShuffleLen + 3)
				data = data[2:]
				entries := make([]wire.ShuffleEntry, 0, n)
				for i := 0; i < n && len(data) >= 3; i++ {
					entries = append(entries, wire.ShuffleEntry{
						ID:  wire.NodeID(data[0] % population),
						Age: binary.LittleEndian.Uint16(data[1:3]),
					})
					data = data[3:]
				}
				if em, ok := st.Handle(from, wire.Shuffle{Reply: op%4 == 1, Entries: entries}); ok {
					sh := shuffleOf(t, em.Msg)
					if !sh.Reply {
						t.Fatal("handle emitted a non-reply")
					}
					if em.To != from {
						t.Fatalf("reply addressed to %d, want requester %d", em.To, from)
					}
					check("reply emission", sh.Entries, false, cfg.ShuffleLen)
				}
			}
			check("view", st.View(), false, cfg.ViewSize)
		}
	})
}
