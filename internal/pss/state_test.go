package pss

import (
	"reflect"
	"testing"

	"gossipstream/internal/member"
	"gossipstream/internal/stream"
	"gossipstream/internal/wire"
)

// Record-level tests: State is the engine-driven form megasim consumes, so
// its contract — emissions instead of sends, inertness when stopped,
// determinism per seed — is pinned here without any scheduler.

func newState(t *testing.T, self wire.NodeID, seed int64, boot ...wire.NodeID) *State {
	t.Helper()
	st, err := NewState(self, DefaultConfig(), seed, boot)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// shuffleOf returns the SHUFFLE an emission carries, by value or by
// pointer (State emits a pointer into its scratch).
func shuffleOf(t testing.TB, msg wire.Message) wire.Shuffle {
	t.Helper()
	switch m := msg.(type) {
	case *wire.Shuffle:
		return *m
	case wire.Shuffle:
		return m
	}
	t.Fatalf("emitted %#v, want a SHUFFLE", msg)
	return wire.Shuffle{}
}

func TestStateImplementsDynamicSampler(t *testing.T) {
	var _ member.DynamicSampler = newState(t, 0, 1, 1, 2)
}

func TestStateTickFireAndForget(t *testing.T) {
	st := newState(t, 0, 1, 1, 2, 3)
	em, ok := st.Tick()
	if !ok {
		t.Fatal("tick on a populated view emitted nothing")
	}
	if sh := shuffleOf(t, em.Msg); sh.Reply {
		t.Fatalf("tick emitted %#v, want a shuffle request", em.Msg)
	}
	// The target's descriptor is removed before the request departs: no
	// pending state exists that a crashed target could wedge.
	for _, e := range st.View() {
		if e.ID == em.To {
			t.Fatalf("shuffle target %d still in view after Tick", em.To)
		}
	}
	// The request carries a fresh self-descriptor.
	self := false
	for _, e := range shuffleOf(t, em.Msg).Entries {
		if e.ID == 0 && e.Age == 0 {
			self = true
		}
	}
	if !self {
		t.Fatal("shuffle request lacks a fresh self-descriptor")
	}
	if st.ShufflesSent() != 1 {
		t.Fatalf("ShufflesSent = %d, want 1", st.ShufflesSent())
	}
}

func TestStateTickEmptyView(t *testing.T) {
	st := newState(t, 0, 1)
	if _, ok := st.Tick(); ok {
		t.Fatal("tick on an empty view emitted a message")
	}
}

func TestStateHandleRequestReplies(t *testing.T) {
	st := newState(t, 0, 1, 1, 2, 3)
	em, ok := st.Handle(9, wire.Shuffle{Entries: []wire.ShuffleEntry{{ID: 9, Age: 0}}})
	if !ok {
		t.Fatal("shuffle request got no reply")
	}
	if em.To != 9 {
		t.Fatalf("reply addressed to %d, want 9", em.To)
	}
	if sh := shuffleOf(t, em.Msg); !sh.Reply {
		t.Fatal("reply not marked Reply")
	}
	// The requester's descriptor was merged.
	found := false
	for _, e := range st.View() {
		if e.ID == 9 {
			found = true
		}
	}
	if !found {
		t.Fatal("request entries not merged")
	}
	if st.ShufflesAnswered() != 1 {
		t.Fatalf("ShufflesAnswered = %d, want 1", st.ShufflesAnswered())
	}
}

func TestStateHandleReplyIsSilent(t *testing.T) {
	st := newState(t, 0, 1, 1, 2)
	if _, ok := st.Handle(5, wire.Shuffle{Reply: true, Entries: []wire.ShuffleEntry{{ID: 5}}}); ok {
		t.Fatal("a shuffle reply produced a counter-reply")
	}
}

func TestStateIgnoresForeignMessages(t *testing.T) {
	st := newState(t, 0, 1, 1, 2)
	before := st.View()
	if _, ok := st.Handle(5, wire.FeedMe{}); ok {
		t.Fatal("non-shuffle message produced an emission")
	}
	if !reflect.DeepEqual(before, st.View()) {
		t.Fatal("non-shuffle message mutated the view")
	}
}

func TestStateStoppedInert(t *testing.T) {
	st := newState(t, 0, 1, 1, 2, 3)
	st.Goodbye() // the LEAVEs are dropped, as on a crash
	if !st.Stopped() {
		t.Fatal("Stopped() = false after Goodbye")
	}
	if _, ok := st.Tick(); ok {
		t.Fatal("stopped record ticked")
	}
	if _, ok := st.Handle(9, wire.Shuffle{Entries: []wire.ShuffleEntry{{ID: 9}}}); ok {
		t.Fatal("stopped record replied")
	}
}

// TestStateDeterministicTwin drives two identically seeded records through
// the same interaction sequence; every emission and the final views must
// match — the property the sharded engine's fixed-(seed, shards)
// reproducibility rests on.
func TestStateDeterministicTwin(t *testing.T) {
	mk := func() *State { return newState(t, 0, 77, 1, 2, 3, 4, 5) }
	a, b := mk(), mk()
	for round := 0; round < 50; round++ {
		ea, oka := a.Tick()
		eb, okb := b.Tick()
		if oka != okb || !reflect.DeepEqual(ea, eb) {
			t.Fatalf("round %d: tick diverged: %#v vs %#v", round, ea, eb)
		}
		in := wire.Shuffle{Entries: []wire.ShuffleEntry{
			{ID: wire.NodeID(round%9 + 1), Age: uint16(round % 5)},
			{ID: wire.NodeID(round%7 + 2), Age: 0},
		}}
		ra, oka := a.Handle(wire.NodeID(round%9+1), in)
		rb, okb := b.Handle(wire.NodeID(round%9+1), in)
		if oka != okb || !reflect.DeepEqual(ra, rb) {
			t.Fatalf("round %d: handle diverged", round)
		}
	}
	if !reflect.DeepEqual(a.View(), b.View()) {
		t.Fatal("final views diverged")
	}
}

func TestStateViewBoundedUnderMergePressure(t *testing.T) {
	cfg := Config{ViewSize: 5, ShuffleLen: 3, Period: DefaultConfig().Period}
	st, err := NewState(0, cfg, 1, []wire.NodeID{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		st.Handle(wire.NodeID(i%20+1), wire.Shuffle{Reply: true, Entries: []wire.ShuffleEntry{
			{ID: wire.NodeID(i%20 + 1), Age: uint16(i % 3)},
		}})
		if got := len(st.View()); got > cfg.ViewSize {
			t.Fatalf("merge %d: view has %d entries, bound is %d", i, got, cfg.ViewSize)
		}
	}
}

// TestStateEmissionIsScratch pins the emission contract: Tick and Handle
// build their SHUFFLE in the record's one scratch message, so an emission
// is valid until the record's next call, which overwrites it.
func TestStateEmissionIsScratch(t *testing.T) {
	st := newState(t, 0, 1, 1, 2, 3, 4, 5)
	req, ok := st.Tick()
	if !ok {
		t.Fatal("tick on a populated view emitted nothing")
	}
	if shuffleOf(t, req.Msg).Reply {
		t.Fatal("tick emitted a reply")
	}
	rep, ok := st.Handle(9, wire.Shuffle{Entries: []wire.ShuffleEntry{{ID: 9}}})
	if !ok {
		t.Fatal("shuffle request got no reply")
	}
	if req.Msg != rep.Msg {
		t.Fatalf("the request (%p) and the reply (%p) are not the same scratch message", req.Msg, rep.Msg)
	}
	if got := shuffleOf(t, req.Msg); !got.Reply || !reflect.DeepEqual(got, shuffleOf(t, rep.Msg)) {
		t.Fatalf("after Handle the earlier emission reads %+v, want the reply", got)
	}
}

// TestShuffleAtDatagramLimit runs a record whose SHUFFLEs hold
// wire.MaxShuffleEntries entries, the most Validate accepts: its request and
// its reply both encode into one datagram.
func TestShuffleAtDatagramLimit(t *testing.T) {
	cfg := Config{ViewSize: 300, ShuffleLen: wire.MaxShuffleEntries, Period: DefaultConfig().Period}
	boot := make([]wire.NodeID, cfg.ViewSize)
	for i := range boot {
		boot[i] = wire.NodeID(i + 1)
	}
	st, err := NewState(0, cfg, 1, boot)
	if err != nil {
		t.Fatal(err)
	}
	codec := wire.NewCodec(stream.Layout{})
	req, _ := st.Tick()
	rep, _ := st.Handle(1000, wire.Shuffle{Entries: []wire.ShuffleEntry{{ID: 1000}}})
	for _, em := range []member.Emit{req, rep} {
		sh := shuffleOf(t, em.Msg)
		if len(sh.Entries) != wire.MaxShuffleEntries {
			t.Fatalf("emitted %d entries, want %d", len(sh.Entries), wire.MaxShuffleEntries)
		}
		if _, err := codec.Encode(0, sh); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShuffleAllocBudget holds one complete Cyclon shuffle — Tick at the
// initiator, Handle of the request, Handle of the reply — to zero
// allocations once every record has emitted: each builds its SHUFFLE in
// its own scratch (six allocations per shuffle while every emission was a
// fresh, boxed value).
func TestShuffleAllocBudget(t *testing.T) {
	const n = 64
	cfg := DefaultConfig()
	states := make([]*State, n)
	for i := range states {
		boot := make([]wire.NodeID, cfg.ShuffleLen)
		for j := range boot {
			boot[j] = wire.NodeID((i + 1 + j) % n)
		}
		states[i] = newState(t, wire.NodeID(i), int64(i), boot...)
	}
	next, shuffles := 0, 0
	shuffle := func() {
		a := wire.NodeID(next % n)
		next++
		req, ok := states[a].Tick()
		if !ok {
			return
		}
		if reply, ok := states[req.To].Handle(a, req.Msg); ok {
			states[a].Handle(req.To, reply.Msg)
			shuffles++
		}
	}
	for range 4 * n { // every record's scratch grows to its size
		shuffle()
	}
	if got := testing.AllocsPerRun(10*n, shuffle); got != 0 {
		t.Fatalf("a shuffle allocates %.2f times, want 0", got)
	}
	if shuffles == 0 {
		t.Fatal("no shuffle completed")
	}
}
