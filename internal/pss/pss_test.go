package pss

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"gossipstream/internal/member"
	"gossipstream/internal/wire"
)

// clock is the tests' virtual time: callbacks fire in (instant, scheduling
// order) order, as on the engine.
type clock struct {
	now     time.Duration
	pending []clockEvent // by instant, ties in scheduling order
}

type clockEvent struct {
	at time.Duration
	fn func()
}

// After schedules fn d from now.
func (c *clock) After(d time.Duration, fn func()) {
	e := clockEvent{at: c.now + d, fn: fn}
	i := sort.Search(len(c.pending), func(i int) bool { return c.pending[i].at > e.at })
	c.pending = slices.Insert(c.pending, i, e)
}

// Now returns the current virtual time.
func (c *clock) Now() time.Duration { return c.now }

// RunUntil fires everything due by deadline, then moves the clock there.
func (c *clock) RunUntil(deadline time.Duration) {
	for len(c.pending) > 0 && c.pending[0].at <= deadline {
		e := c.pending[0]
		c.pending = c.pending[1:]
		c.now = e.at
		e.fn()
	}
	c.now = max(c.now, deadline)
}

// bus drives State records the way an engine does: it ticks each one on
// the shuffle period (de-phased by a random offset) and carries whatever
// Tick and Handle emit, with a fixed delay.
type bus struct {
	t      testing.TB
	sched  *clock
	rng    *rand.Rand
	period time.Duration
	nodes  map[wire.NodeID]*State
	sent   int
}

// send carries one emission; the destination's answer, if any, travels
// back the same way. A record no longer on the bus loses the message.
// Like an engine, the bus copies the SHUFFLE at send: the emission is the
// sender's scratch, and the sender's next call overwrites it.
func (b *bus) send(from wire.NodeID, em member.Emit) {
	b.sent++
	sh := shuffleOf(b.t, em.Msg)
	msg := wire.Shuffle{Reply: sh.Reply, Entries: slices.Clone(sh.Entries)}
	b.sched.After(5*time.Millisecond, func() {
		st, ok := b.nodes[em.To]
		if !ok {
			return
		}
		if reply, ok := st.Handle(from, msg); ok {
			b.send(em.To, reply)
		}
	})
}

// start begins st's periodic shuffling.
func (b *bus) start(st *State) {
	var tick func()
	tick = func() {
		b.sched.After(b.period, tick)
		if em, ok := st.Tick(); ok {
			b.send(st.Self(), em)
		}
	}
	b.sched.After(time.Duration(b.rng.Int63n(int64(b.period))), tick)
}

// overlay builds n records bootstrapped in a ring (each knows the next 2)
// on a bus; startAll sets them shuffling.
func overlay(t *testing.T, n int, cfg Config) (*clock, *bus, []*State) {
	t.Helper()
	sched := &clock{}
	b := &bus{t: t, sched: sched, rng: rand.New(rand.NewSource(5)), period: cfg.Period, nodes: make(map[wire.NodeID]*State)}
	nodes := make([]*State, n)
	for i := 0; i < n; i++ {
		boot := []wire.NodeID{wire.NodeID((i + 1) % n), wire.NodeID((i + 2) % n)}
		st, err := NewState(wire.NodeID(i), cfg, int64(i+1), boot)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = st
		b.nodes[wire.NodeID(i)] = st
	}
	return sched, b, nodes
}

func (b *bus) startAll(nodes []*State) {
	for _, st := range nodes {
		b.start(st)
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"default valid", func(c *Config) {}, true},
		{"zero view", func(c *Config) { c.ViewSize = 0 }, false},
		{"zero shuffle", func(c *Config) { c.ShuffleLen = 0 }, false},
		{"shuffle exceeds view", func(c *Config) { c.ShuffleLen = c.ViewSize + 1 }, false},
		{"zero period", func(c *Config) { c.Period = 0 }, false},
		// A SHUFFLE carries at most ShuffleLen entries (the request's
		// self-descriptor among them) and must fit one datagram.
		{"shuffle fills a datagram", func(c *Config) { c.ViewSize, c.ShuffleLen = 300, wire.MaxShuffleEntries }, true},
		{"shuffle exceeds a datagram", func(c *Config) { c.ViewSize, c.ShuffleLen = 300, wire.MaxShuffleEntries+1 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); (err == nil) != tt.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestBootstrapExcludesSelf(t *testing.T) {
	n, err := NewState(3, DefaultConfig(), 1, []wire.NodeID{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range n.View() {
		if e.ID == 3 {
			t.Fatal("bootstrap included self")
		}
	}
	if len(n.View()) != 2 {
		t.Fatalf("view = %d entries, want 2", len(n.View()))
	}
}

// TestBootstrapKeepsFirstDistinct: a bootstrap list longer than the view,
// with self and duplicates among its ids, seeds the first ViewSize
// distinct other ids, in list order, all at age 0.
func TestBootstrapKeepsFirstDistinct(t *testing.T) {
	cfg := Config{ViewSize: 4, ShuffleLen: 2, Period: 100 * time.Millisecond}
	n, err := NewState(3, cfg, 1, []wire.NodeID{5, 3, 5, 7, 3, 2, 7, 9, 11, 2, 13})
	if err != nil {
		t.Fatal(err)
	}
	want := []wire.ShuffleEntry{{ID: 5}, {ID: 7}, {ID: 2}, {ID: 9}}
	if got := n.View(); !slices.Equal(got, want) {
		t.Fatalf("view = %v, want %v", got, want)
	}
}

func TestViewBounded(t *testing.T) {
	cfg := Config{ViewSize: 4, ShuffleLen: 2, Period: 100 * time.Millisecond}
	sched, b, nodes := overlay(t, 30, cfg)
	b.startAll(nodes)
	sched.RunUntil(30 * time.Second)
	for i, n := range nodes {
		if got := len(n.View()); got > cfg.ViewSize {
			t.Fatalf("node %d view has %d entries, bound is %d", i, got, cfg.ViewSize)
		}
	}
}

func TestViewsDiversifyBeyondBootstrap(t *testing.T) {
	cfg := Config{ViewSize: 8, ShuffleLen: 4, Period: 100 * time.Millisecond}
	sched, b, nodes := overlay(t, 40, cfg)
	b.startAll(nodes)
	sched.RunUntil(60 * time.Second)
	// After a minute of shuffling each node must know peers well beyond
	// its two ring successors.
	for i, n := range nodes {
		beyond := 0
		for _, e := range n.View() {
			d := (int(e.ID) - i + 40) % 40
			if d > 2 {
				beyond++
			}
		}
		if beyond < 3 {
			t.Fatalf("node %d still ring-bound: view %v", i, n.View())
		}
	}
}

func TestNoSelfOrDuplicateDescriptors(t *testing.T) {
	cfg := Config{ViewSize: 6, ShuffleLen: 3, Period: 100 * time.Millisecond}
	sched, b, nodes := overlay(t, 25, cfg)
	b.startAll(nodes)
	sched.RunUntil(30 * time.Second)
	for i, n := range nodes {
		seen := make(map[wire.NodeID]bool)
		for _, e := range n.View() {
			if e.ID == wire.NodeID(i) {
				t.Fatalf("node %d has itself in view", i)
			}
			if seen[e.ID] {
				t.Fatalf("node %d has duplicate descriptor %d", i, e.ID)
			}
			seen[e.ID] = true
		}
	}
}

func TestInDegreeBalanced(t *testing.T) {
	cfg := Config{ViewSize: 8, ShuffleLen: 4, Period: 100 * time.Millisecond}
	sched, b, nodes := overlay(t, 40, cfg)
	b.startAll(nodes)
	sched.RunUntil(60 * time.Second)
	indeg := make(map[wire.NodeID]int)
	for _, n := range nodes {
		for _, e := range n.View() {
			indeg[e.ID]++
		}
	}
	// Mean in-degree = total view entries / n ≈ 8. No node should be
	// starved (<1) or wildly popular (>4× mean).
	for id, d := range indeg {
		if d > 32 {
			t.Fatalf("node %d has in-degree %d (mean ≈8)", id, d)
		}
	}
	if len(indeg) < 35 {
		t.Fatalf("only %d of 40 nodes appear in any view", len(indeg))
	}
}

func TestSampleUniformish(t *testing.T) {
	cfg := Config{ViewSize: 10, ShuffleLen: 5, Period: 100 * time.Millisecond}
	sched, b, nodes := overlay(t, 30, cfg)
	b.startAll(nodes)
	sched.RunUntil(60 * time.Second)
	// Sampling repeatedly from node 0 over further shuffles should reach
	// many distinct peers.
	reached := make(map[wire.NodeID]bool)
	for round := 0; round < 200; round++ {
		sched.RunUntil(sched.Now() + 500*time.Millisecond)
		for _, id := range nodes[0].Sample(3) {
			reached[id] = true
		}
	}
	if len(reached) < 20 {
		t.Fatalf("sampling from a partial view reached only %d/29 peers", len(reached))
	}
}

func TestSampleBounds(t *testing.T) {
	n, err := NewState(0, DefaultConfig(), 1, []wire.NodeID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Sample(10); len(got) != 2 {
		t.Fatalf("Sample(10) of a 2-entry view returned %d", len(got))
	}
	if got := n.Sample(0); got != nil {
		t.Fatalf("Sample(0) = %v", got)
	}
}

func TestDeadNodesAgeOut(t *testing.T) {
	cfg := Config{ViewSize: 6, ShuffleLen: 3, Period: 100 * time.Millisecond}
	sched, b, nodes := overlay(t, 20, cfg)
	b.startAll(nodes)
	sched.RunUntil(20 * time.Second)
	// Crash node 7: remove it from the bus and stop its record, dropping
	// the LEAVEs Goodbye would announce. Its descriptors must eventually
	// vanish from all views (they age, get picked as oldest, and are
	// dropped without refresh).
	nodes[7].Goodbye()
	delete(b.nodes, 7)
	sched.RunUntil(sched.Now() + 120*time.Second)
	holders := 0
	for i, n := range nodes {
		if i == 7 {
			continue
		}
		for _, e := range n.View() {
			if e.ID == 7 {
				holders++
			}
		}
	}
	if holders > 2 {
		t.Fatalf("dead node still present in %d views after 2 minutes", holders)
	}
}

func TestStoppedNodeSilent(t *testing.T) {
	sched, b, nodes := overlay(t, 5, DefaultConfig())
	b.start(nodes[0])
	nodes[0].Goodbye() // a crash: its LEAVEs are never sent
	sched.RunUntil(10 * time.Second)
	if b.sent != 0 {
		t.Fatal("stopped node kept shuffling")
	}
	// A stopped record is inert on the receiving side too: the request
	// arrives and nothing comes back.
	b.send(1, member.Emit{To: 0, Msg: wire.Shuffle{Entries: []wire.ShuffleEntry{{ID: 4}}}})
	sched.RunUntil(20 * time.Second)
	if b.sent != 1 {
		t.Fatal("stopped node replied to a shuffle")
	}
}

func TestShuffleRequestGetsReply(t *testing.T) {
	sched, b, nodes := overlay(t, 4, DefaultConfig())
	b.send(0, member.Emit{To: 1, Msg: wire.Shuffle{Entries: []wire.ShuffleEntry{{ID: 0, Age: 1}}}})
	sched.RunUntil(time.Second)
	if b.sent != 2 {
		t.Fatalf("request produced %d messages, want the request and 1 reply", b.sent)
	}
	// The received descriptor must be merged on arrival (node 1 was
	// bootstrapped with 2 and 3 only).
	found := false
	for _, e := range nodes[1].View() {
		if e.ID == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("shuffle entries not merged")
	}
}

func TestInsertKeepsYoungerAge(t *testing.T) {
	n, err := NewState(0, DefaultConfig(), 1, []wire.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	n.Handle(1, wire.Shuffle{Reply: true, Entries: []wire.ShuffleEntry{{ID: 1, Age: 9}}})
	if n.View()[0].Age != 0 {
		t.Fatal("older duplicate overwrote younger age")
	}
	n.view[0].Age = 9
	n.Handle(1, wire.Shuffle{Reply: true, Entries: []wire.ShuffleEntry{{ID: 1, Age: 2}}})
	if n.View()[0].Age != 2 {
		t.Fatal("younger duplicate did not refresh age")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	bad := DefaultConfig()
	bad.ViewSize = 0
	if _, err := NewState(0, bad, 1, nil); err == nil {
		t.Fatal("invalid config accepted")
	}
}
