package megasim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"gossipstream/internal/member"
	"gossipstream/internal/shaping"
	"gossipstream/internal/simnet"
	"gossipstream/internal/stream"
	"gossipstream/internal/wire"
)

// assertConserved checks TotalStats' conservation identity: every message
// counted sent was either received or accounted to exactly one drop
// bucket. Stale-handle deliveries fold into DeadDrops; stale-handle sends
// are never counted sent, so the identity is exact under any churn.
func assertConserved(t *testing.T, s simnet.Stats) {
	t.Helper()
	var sent, recv uint64
	for k := range s.SentMsgs {
		sent += s.SentMsgs[k]
		recv += s.RecvMsgs[k]
	}
	if sent != recv+s.RandomDrops+s.DeadDrops {
		t.Fatalf("conservation broken: sent %d != recv %d + random %d + dead %d",
			sent, recv, s.RandomDrops, s.DeadDrops)
	}
}

func mustPanicContains(t *testing.T, name, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s did not panic", name)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("%s panic %q does not contain %q", name, msg, want)
		}
	}()
	fn()
}

// TestArenaSlotRecyclingLifecycle walks one slot through the full recycle
// path at barriers: Crash queues it, PeekNextID names it at its next
// generation at once and keeps naming it until an AddNode takes it, and
// the old handle turns detectably stale.
func TestArenaSlotRecyclingLifecycle(t *testing.T) {
	e, err := New(Config{Shards: 1, Net: flatNet(10 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if id := e.AddNode(sink{}, shaping.Unlimited, 0); id != NodeID(i) {
			t.Fatalf("setup id %d, want dense %d", id, i)
		}
	}
	old := NodeID(1)
	var reused NodeID
	e.AtBarrier(20*time.Millisecond, func() {
		e.Crash(old)
		if got, want := e.PeekNextID(), makeID(1, 1); got != want {
			t.Fatalf("PeekNextID at the Crash barrier = %d, want %d (slot 1, gen 1)", got, want)
		}
	})
	e.AtBarrier(30*time.Millisecond, func() {
		// Peeking consumed nothing: the queued slot is still the next.
		want := makeID(1, 1)
		if got := e.PeekNextID(); got != want {
			t.Fatalf("PeekNextID at a later barrier = %d, want %d (slot 1, gen 1)", got, want)
		}
		reused = e.AddNode(sink{}, shaping.Unlimited, 0)
		if reused != want {
			t.Fatalf("AddNode returned %d, PeekNextID promised %d", reused, want)
		}
	})
	if err := e.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if Slot(reused) != 1 || Gen(reused) != 1 {
		t.Fatalf("reused handle %d decodes to slot %d gen %d, want 1/1", reused, Slot(reused), Gen(reused))
	}
	if e.N() != 3 || e.Added() != 4 || e.Recycled() != 1 {
		t.Fatalf("N %d Added %d Recycled %d, want 3/4/1", e.N(), e.Added(), e.Recycled())
	}
	if !e.Alive(reused) {
		t.Fatal("reused slot's new incarnation is not alive")
	}
	if st := e.NodeStats(reused); st != (simnet.Stats{}) {
		t.Fatalf("new incarnation inherited counters: %+v", st)
	}
	// Every accessor rejects the departed incarnation's handle by name.
	mustPanicContains(t, "Alive(stale)", "stale handle", func() { e.Alive(old) })
	mustPanicContains(t, "NodeStats(stale)", "slot 1 is at generation 1", func() { e.NodeStats(old) })
}

// staleDeliveryEngine builds the canonical recycling race: a message sent
// to a node's handle after its Crash but before its slot recycles,
// arriving after the reuse. Returns the engine (not yet Run) and the new
// incarnation's recorder.
func staleDeliveryEngine(t *testing.T, shards int) (*Engine, *recorder) {
	t.Helper()
	e, err := New(Config{Shards: shards, Net: flatNet(10 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	env0 := e.NodeEnv(0, NewRand(1))
	e.AddNode(&recorder{env: env0}, shaping.Unlimited, 0)
	e.AddNode(sink{}, shaping.Unlimited, 0)
	r2 := &recorder{}
	e.AtBarrier(20*time.Millisecond, func() { e.Crash(1) })
	// In flight at 25 ms, addressed to the gen-0 handle, arriving at 35 ms
	// — after the slot recycles at the 30 ms barrier.
	env0.After(25*time.Millisecond, func() { env0.Send(1, wire.FeedMe{}) })
	e.AtBarrier(30*time.Millisecond, func() {
		id := e.PeekNextID()
		r2.env = e.NodeEnv(id, NewRand(2))
		if got := e.AddNode(r2, shaping.Unlimited, 0); got != makeID(1, 1) {
			t.Fatalf("reuse minted %d, want slot 1 gen 1", got)
		}
	})
	return e, r2
}

// TestStaleReferenceDetection is the "event addressed to a dead
// incarnation" table: each scenario plants a reference that outlives its
// node — an in-flight delivery, a cross-shard outbox entry, a descriptor
// held in a sampler's view, a timer chain — and asserts the engine detects
// it (counted drop, or designed silent chain end) instead of corrupting
// the slot's new occupant.
func TestStaleReferenceDetection(t *testing.T) {
	t.Run("delivery-same-shard", func(t *testing.T) { staleDeliveryCase(t, 1) })
	t.Run("delivery-cross-shard-outbox", func(t *testing.T) { staleDeliveryCase(t, 2) })

	// A timer the departed incarnation armed comes due after the slot
	// recycled: it dies with its node, so the send it would make never
	// happens — nothing is counted sent, conservation needs no balancing
	// entry, and the new occupant's counters stay untouched. (A send that
	// does reach the engine from a stale handle is send-from-stale-handle.)
	t.Run("send-from-stale-timer", func(t *testing.T) {
		e, err := New(Config{Shards: 1, Net: flatNet(10 * time.Millisecond)})
		if err != nil {
			t.Fatal(err)
		}
		e.AddNode(&recorder{}, shaping.Unlimited, 0)
		env1 := e.NodeEnv(1, NewRand(2))
		e.AddNode(&recorder{env: env1}, shaping.Unlimited, 0)
		e.AtBarrier(20*time.Millisecond, func() { e.Crash(1) })
		e.AtBarrier(30*time.Millisecond, func() { e.AddNode(sink{}, shaping.Unlimited, 0) })
		env1.After(35*time.Millisecond, func() { env1.Send(0, wire.FeedMe{}) })
		if err := e.Run(60 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		total := e.TotalStats()
		if total.SentMsgs[wire.KindFeedMe] != 0 {
			t.Fatalf("send from a stale handle was counted sent: %+v", total)
		}
		if e.StaleDrops() != 0 {
			t.Fatalf("StaleDrops = %d; stale sends must not count (only deliveries balance sent)", e.StaleDrops())
		}
		assertConserved(t, total)
	})

	// A live node's timer sends from the departed node's handle after its
	// slot recycled: the send drops silently, never counted sent, and the
	// slot's new occupant sends nothing.
	t.Run("send-from-stale-handle", func(t *testing.T) {
		e, err := New(Config{Shards: 1, Net: flatNet(10 * time.Millisecond)})
		if err != nil {
			t.Fatal(err)
		}
		e.AddNode(sink{}, shaping.Unlimited, 0)
		env0 := e.NodeEnv(0, NewRand(1))
		env1 := e.NodeEnv(1, NewRand(2))
		e.AddNode(&recorder{env: env1}, shaping.Unlimited, 0)
		e.AtBarrier(20*time.Millisecond, func() { e.Crash(1) })
		var newID NodeID
		e.AtBarrier(30*time.Millisecond, func() { newID = e.AddNode(sink{}, shaping.Unlimited, 0) })
		env0.After(35*time.Millisecond, func() { env1.Send(0, wire.FeedMe{}) })
		if err := e.Run(60 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		total := e.TotalStats()
		if total.SentMsgs != (simnet.Stats{}).SentMsgs || total.SentBytes != (simnet.Stats{}).SentBytes {
			t.Fatalf("send from a stale handle was counted sent: %+v", total)
		}
		if st := e.NodeStats(newID); st != (simnet.Stats{}) {
			t.Fatalf("the slot's new occupant was charged the stale send: %+v", st)
		}
		if e.StaleDrops() != 0 {
			t.Fatalf("StaleDrops = %d; stale sends must not count (only deliveries balance sent)", e.StaleDrops())
		}
		assertConserved(t, total)
	})

	// A sampler's view retains the departed node's descriptor: shuffles
	// keep flowing to the stale handle. Deliveries before the reuse
	// dead-drop on the crashed slot; deliveries after it are stale
	// drops; the new occupant sees none of it.
	t.Run("sampler-held-descriptor", func(t *testing.T) {
		e, err := New(Config{Shards: 1, Net: flatNet(10 * time.Millisecond)})
		if err != nil {
			t.Fatal(err)
		}
		h := &holder{to: 1}
		e.AddNode(sink{}, shaping.Unlimited, 0)
		e.AttachSampler(0, h, 8*time.Millisecond)
		e.AddNode(sink{}, shaping.Unlimited, 0)
		var newID NodeID
		e.AtBarrier(20*time.Millisecond, func() { e.Crash(1) })
		e.AtBarrier(30*time.Millisecond, func() { newID = e.AddNode(sink{}, shaping.Unlimited, 0) })
		// Silence the emitter before the horizon so in-flight shuffles
		// drain and the conservation identity is exact at run end.
		e.AtBarrier(130*time.Millisecond, func() { e.Crash(0) })
		if err := e.Run(150 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if e.StaleDrops() == 0 {
			t.Fatal("no stale drops: shuffles to the recycled descriptor went somewhere")
		}
		if st := e.NodeStats(newID); st != (simnet.Stats{}) {
			t.Fatalf("new occupant received stale-descriptor traffic: %+v", st)
		}
		total := e.TotalStats()
		if total.SentMsgs[wire.KindShuffle] == 0 || total.DeadDrops == 0 {
			t.Fatalf("scenario did not exercise both the dead and the stale paths: %+v", total)
		}
		assertConserved(t, total)
	})

	// The departed incarnation's membership tick chain must end at its
	// first post-reuse tick — silently, uncounted as a stale drop (this is
	// the designed end of the chain, not an error) — and must not tick the
	// new occupant's sampler: a missing generation check would double the
	// new sampler's rate.
	t.Run("member-tick-chain", func(t *testing.T) {
		e, err := New(Config{Shards: 1, Net: flatNet(10 * time.Millisecond)})
		if err != nil {
			t.Fatal(err)
		}
		e.AddNode(sink{}, shaping.Unlimited, 0)
		c1, c2 := &countTick{}, &countTick{}
		e.AddNode(sink{}, shaping.Unlimited, 0)
		e.AttachSampler(1, c1, 7*time.Millisecond)
		e.AtBarrier(20*time.Millisecond, func() { e.Crash(1) })
		e.AtBarrier(30*time.Millisecond, func() {
			id := e.AddNode(sink{}, shaping.Unlimited, 0)
			e.AttachSampler(id, c2, 7*time.Millisecond)
		})
		if err := e.Run(200 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if c1.n < 1 || c1.n > 3 {
			t.Fatalf("departed sampler ticked %d times, want 1..3 (life ended at 20 ms)", c1.n)
		}
		// ≈ (200-30)/7 ≈ 24 ticks on its own schedule; a leaked stale chain
		// would roughly double this.
		if c2.n < 20 || c2.n > 26 {
			t.Fatalf("new incarnation's sampler ticked %d times, want ≈24 (its own chain only)", c2.n)
		}
		if e.StaleDrops() != 0 {
			t.Fatalf("StaleDrops = %d: the chain's end was counted as a stale drop", e.StaleDrops())
		}
	})
}

func staleDeliveryCase(t *testing.T, shards int) {
	e, r2 := staleDeliveryEngine(t, shards)
	if err := e.Run(60 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := e.StaleDrops(); got != 1 {
		t.Fatalf("StaleDrops = %d, want 1", got)
	}
	if len(r2.froms) != 0 {
		t.Fatal("stale delivery reached the slot's new occupant")
	}
	var shardSum uint64
	var outboxOut uint64
	for _, l := range e.ShardLoads() {
		shardSum += l.StaleDrops
		outboxOut += l.OutboxOut
	}
	if shardSum != 1 {
		t.Fatalf("ShardLoads stale drops sum %d, want 1", shardSum)
	}
	if shards > 1 && outboxOut == 0 {
		t.Fatal("cross-shard case moved no outbox traffic: the stale delivery never crossed a barrier hand-off")
	}
	total := e.TotalStats()
	if total.SentMsgs[wire.KindFeedMe] != 1 || total.DeadDrops != 1 {
		t.Fatalf("stale delivery accounting: %+v (want 1 sent, 1 dead drop)", total)
	}
	assertConserved(t, total)
}

// TestCrashPanicShapes pins the named, actionable panics on every way to
// misuse Crash and the handle-resolving accessors: a handle the arena never
// minted, a stale one, and a Crash while a window runs or after Run. A
// second Crash of a node that is down changes nothing.
func TestCrashPanicShapes(t *testing.T) {
	e, err := New(Config{Shards: 1, Net: flatNet(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	e.AddNode(sink{}, shaping.Unlimited, 0)
	e.AddNode(sink{}, shaping.Unlimited, 0)
	mustPanicContains(t, "Crash(out of range)", "megasim: Crash: unknown node 99", func() { e.Crash(99) })
	mustPanicContains(t, "Crash(negative)", "unknown node", func() { e.Crash(-1) })
	e.Crash(1)
	e.Crash(1)
	if e.Live() != 1 || len(e.free)-e.freeHead != 1 {
		t.Fatalf("after two Crashes of node 1: %d live, %d slots queued; want 1 and 1", e.Live(), len(e.free)-e.freeHead)
	}
	// The next AddNode recycles slot 1 and the old handle is stale from
	// then on.
	if id := e.AddNode(sink{}, shaping.Unlimited, 0); id != makeID(1, 1) {
		t.Fatalf("setup-time recycle minted %d, want slot 1 gen 1", id)
	}
	mustPanicContains(t, "Crash(stale)", "megasim: Crash: stale handle", func() { e.Crash(1) })

	// Node 0's timer fires inside a window, where no topology may change.
	env0 := e.NodeEnv(0, NewRand(1))
	env0.After(time.Millisecond, func() { e.Crash(0) })
	mustPanicContains(t, "Crash(in a window)", "megasim: Crash during Run outside a barrier callback", func() { _ = e.Run(10 * time.Millisecond) })
	mustPanicContains(t, "Crash(after Run)", "megasim: Crash after Run", func() { e.Crash(0) })
}

// witness is a TimerHandler that notes every call the engine makes on
// it: a delivery of either route, and a flat timer.
type witness struct{ calls []string }

func (w *witness) HandleMessage(from NodeID, msg wire.Message) {
	w.calls = append(w.calls, fmt.Sprintf("%v from %d", msg.Kind(), from))
}
func (w *witness) OnTimer(kind uint8, arg uint32) {
	w.calls = append(w.calls, fmt.Sprintf("timer %d/%d", kind, arg))
}
func (w *witness) HandleIDs(from NodeID, kind wire.Kind, ids []stream.PacketID) {
	w.calls = append(w.calls, fmt.Sprintf("%v %v from %d", kind, ids, from))
}

// TestSlotReusedAtItsCrashBarrier crashes node 1 and admits a node into
// its slot at the same barrier, while the old incarnation still has a
// delivery of each form addressed to it, a flat timer, an After closure
// and a membership tick pending, and a send of its own in flight. The new
// occupant sees none of it: the deliveries to the old handle are stale
// drops, its own send dead-drops at its live destination, and its timers
// and tick die uncounted. Every message counted sent is received or
// dropped once, and the run is the same at every shard count and on
// replay.
func TestSlotReusedAtItsCrashBarrier(t *testing.T) {
	type outcome struct {
		fired, stale uint64
		total        simnet.Stats
		slots        []simnet.Stats
		live         []uint32
		calls        [5][]string // nodes 0 to 3, then the new occupant
		afterRan     bool
		oldTicks     [2]int // the old sampler's ticks at the crash and at the end
		newTicks     int
	}
	run := func(shards int) outcome {
		e, err := New(Config{Shards: shards, Seed: 4, Net: flatNet(10 * time.Millisecond)})
		if err != nil {
			t.Fatal(err)
		}
		var out outcome
		var ws [5]*witness
		envs := make([]*NodeEnv, 4)
		for i := range envs {
			ws[i] = &witness{}
			envs[i] = e.NodeEnv(NodeID(i), NewRand(int64(i)+1))
			e.AddNode(ws[i], shaping.Unlimited, 0)
		}
		old, fresh := &countTick{}, &countTick{}
		e.AttachSampler(1, old, 7*time.Millisecond)
		// At 15 ms, inside a window: node 0 sends node 1 a boxed FEED-ME
		// (a slab record) and a one-id PROPOSE (carried in its event),
		// node 1 sends node 2 a FEED-ME and arms both kinds of timer, all
		// due at 25 ms, past the 20 ms barrier.
		envs[0].After(15*time.Millisecond, func() {
			envs[0].Send(1, wire.FeedMe{})
			sendOneID(envs[0], 1, wire.KindPropose)
		})
		envs[1].After(15*time.Millisecond, func() {
			envs[1].Send(2, wire.FeedMe{})
			envs[1].AfterTimer(10*time.Millisecond, 7, 9)
			envs[1].After(10*time.Millisecond, func() { out.afterRan = true })
		})
		e.AtBarrier(20*time.Millisecond, func() {
			out.oldTicks[0] = old.n
			e.Crash(1)
			want := makeID(1, 1)
			if got := e.PeekNextID(); got != want {
				t.Fatalf("%d shards: PeekNextID at the Crash barrier = %d, want %d (slot 1, gen 1)", shards, got, want)
			}
			e.NodeEnv(want, NewRand(9))
			ws[4] = &witness{}
			if got := e.AddNode(ws[4], shaping.Unlimited, 0); got != want {
				t.Fatalf("%d shards: AddNode minted %d, want %d", shards, got, want)
			}
			// An hour's period: the new sampler's own first tick falls
			// past the run, so any tick it takes is the old chain's.
			e.AttachSampler(want, fresh, time.Hour)
		})
		if err := e.Run(100 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		out.fired, out.stale, out.total = e.Fired(), e.StaleDrops(), e.TotalStats()
		for i := range e.nodes.Len() {
			out.slots = append(out.slots, e.nodes.At(i).stats)
		}
		out.live = append(out.live, e.live...)
		for i, w := range ws {
			out.calls[i] = w.calls
		}
		out.oldTicks[1], out.newTicks = old.n, fresh.n
		return out
	}
	var first outcome
	for _, shards := range []int{1, 2, 4} {
		got := run(shards)
		for i, calls := range got.calls {
			if len(calls) != 0 {
				t.Fatalf("%d shards: node %d's handler was called: %q", shards, i, calls)
			}
		}
		if got.afterRan || got.oldTicks[0] < 2 || got.oldTicks[1] != got.oldTicks[0] || got.newTicks != 0 {
			t.Fatalf("%d shards: the old incarnation's After ran %v, its sampler ticked %d→%d, the new sampler %d times",
				shards, got.afterRan, got.oldTicks[0], got.oldTicks[1], got.newTicks)
		}
		if got.stale != 2 || got.slots[2].DeadDrops != 1 || got.total.DeadDrops != 3 {
			t.Fatalf("%d shards: %d stale drops, %d dead drops at node 2, %d in all; want 2, 1, 3",
				shards, got.stale, got.slots[2].DeadDrops, got.total.DeadDrops)
		}
		if got.slots[1] != (simnet.Stats{}) {
			t.Fatalf("%d shards: the new occupant's counters moved: %+v", shards, got.slots[1])
		}
		if sent := got.total.SentMsgs; sent[wire.KindFeedMe] != 2 || sent[wire.KindPropose] != 1 {
			t.Fatalf("%d shards: sent %v, want 2 FEED-MEs and 1 PROPOSE", shards, sent)
		}
		assertConserved(t, got.total)
		if again := run(shards); !reflect.DeepEqual(got, again) {
			t.Fatalf("%d shards: replay diverged:\n%+v\n%+v", shards, got, again)
		}
		if shards == 1 {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Fatalf("%d shards differ from one:\n%+v\n%+v", shards, got, first)
		}
	}
}

// churnRun drives a lossy, jittery multi-shard population through ten
// crash-and-admit cycles, the arena recycling slots throughout. Chatters
// keep sending to the original dense gen-0 handles, so stale deliveries
// occur by construction.
func churnRun(t *testing.T) *Engine {
	t.Helper()
	e, err := New(Config{
		Shards: 3,
		Seed:   9,
		Net: simnet.Config{
			BaseLatencyMedian: 5 * time.Millisecond,
			BaseLatencySigma:  0.3,
			JitterFrac:        0.2,
			PairSpread:        0.2,
			LossRate:          0.1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	live := make([]NodeID, 0, n+1)
	for i := 0; i < n; i++ {
		env := e.NodeEnv(NodeID(i), NewRand(int64(200+i)))
		c := &chatter{env: env, n: n, period: 3 * time.Millisecond}
		live = append(live, e.AddNode(c, 256_000, 4096))
		c.start()
	}
	for i := 0; i < 10; i++ {
		victim := NodeID(i + 1)
		seed := int64(500 + i)
		e.AtBarrier(time.Duration(100+30*i)*time.Millisecond, func() {
			e.Crash(victim)
			for j, id := range live {
				if id == victim {
					live = append(live[:j], live[j+1:]...)
					break
				}
			}
			id := e.PeekNextID()
			c := &chatter{env: e.NodeEnv(id, NewRand(seed)), n: n, period: 3 * time.Millisecond}
			if got := e.AddNode(c, 256_000, 4096); got != id {
				t.Fatalf("AddNode minted %d, PeekNextID promised %d", got, id)
			}
			live = append(live, id)
			c.start()
		})
	}
	// Silence everyone well before the horizon: crashed chatters' timer
	// chains keep firing but their sends drop uncounted, so every message
	// that WAS counted sent drains to a receive or a drop bucket by run
	// end and the conservation identity is exact.
	e.AtBarrier(450*time.Millisecond, func() {
		for _, id := range live {
			e.Crash(id)
		}
	})
	if err := e.Run(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestArenaStatsConservationUnderChurn: ten recycle cycles of lossy
// traffic, every counter conserved — departed incarnations' stats fold
// into the departed accumulator at reuse, stale deliveries into
// DeadDrops, and the identity sent == recv + drops holds exactly.
func TestArenaStatsConservationUnderChurn(t *testing.T) {
	e := churnRun(t)
	if e.Added() != 40 || e.Recycled() != 10 || e.N() != 30 {
		t.Fatalf("Added %d Recycled %d N %d, want 40/10/30 (each admission reuses the slot its barrier crashed)",
			e.Added(), e.Recycled(), e.N())
	}
	if e.N() != e.Added()-e.Recycled() {
		t.Fatalf("arena size %d != added %d - recycled %d", e.N(), e.Added(), e.Recycled())
	}
	if e.StaleDrops() == 0 {
		t.Fatal("no stale drops: chatters address dense gen-0 handles, some must land on recycled slots")
	}
	total := e.TotalStats()
	if total.RandomDrops == 0 || total.DeadDrops == 0 || total.SentMsgs[wire.KindFeedMe] == 0 {
		t.Fatalf("scenario did not exercise all drop paths: %+v", total)
	}
	assertConserved(t, total)
}

// TestArenaChurnReplayDeterminism: the recycling machinery — FIFO slot
// reuse, generation bumps, stats folds — is part of the
// deterministic schedule: twin runs are bit-identical.
func TestArenaChurnReplayDeterminism(t *testing.T) {
	a, b := churnRun(t), churnRun(t)
	if a.Fired() != b.Fired() {
		t.Fatalf("fired %d vs %d across replays", a.Fired(), b.Fired())
	}
	if a.Recycled() != b.Recycled() || a.StaleDrops() != b.StaleDrops() {
		t.Fatalf("recycling diverged: recycled %d/%d, stale %d/%d",
			a.Recycled(), b.Recycled(), a.StaleDrops(), b.StaleDrops())
	}
	if !reflect.DeepEqual(a.TotalStats(), b.TotalStats()) {
		t.Fatal("TotalStats differ across replays")
	}
	for i := range a.nodes.Len() {
		if a.nodes.At(i).stats != b.nodes.At(i).stats {
			t.Fatalf("slot %d counters differ across replays", i)
		}
		if a.live[i] != b.live[i] {
			t.Fatalf("slot %d liveness word %#x vs %#x (generation %d vs %d)", i, a.live[i], b.live[i], a.live[i]>>liveGenShift, b.live[i]>>liveGenShift)
		}
	}
}

// TestArenaMemoryStaysFlat is the tentpole guarantee in miniature: under
// steady join/leave churn the arena stops growing — memory is O(live
// nodes), not O(nodes ever).
func TestArenaMemoryStaysFlat(t *testing.T) {
	e, err := New(Config{Shards: 2, Net: flatNet(5 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	const live, rounds = 40, 100
	var cur []NodeID
	for i := 0; i < live; i++ {
		cur = append(cur, e.AddNode(sink{}, shaping.Unlimited, 0))
	}
	for i := 0; i < rounds; i++ {
		e.AtBarrier(time.Duration(i+1)*20*time.Millisecond, func() {
			victim := cur[0]
			cur = cur[1:]
			e.Crash(victim)
			cur = append(cur, e.AddNode(sink{}, shaping.Unlimited, 0))
		})
	}
	if err := e.Run(time.Duration(rounds+2) * 20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if e.Added() != live+rounds {
		t.Fatalf("Added = %d, want %d", e.Added(), live+rounds)
	}
	if e.Live() != live {
		t.Fatalf("Live = %d, want steady %d", e.Live(), live)
	}
	// Every admit reuses the slot its barrier just crashed: the arena
	// does not grow over 100 joins.
	if e.N() > live {
		t.Fatalf("arena grew to %d slots for %d live nodes over %d joins: recycling is not working",
			e.N(), live, e.Added())
	}
	if e.Recycled() != e.Added()-e.N() {
		t.Fatalf("Recycled %d != Added %d - N %d", e.Recycled(), e.Added(), e.N())
	}
}

// holder is a membership record whose view permanently holds one
// descriptor: every tick shuffles toward it. It models a sampler whose
// partial view retains a departed node past its slot's recycling.
type holder struct{ to NodeID }

func (h *holder) Sample(int) []wire.NodeID { return nil }
func (h *holder) Tick() (member.Emit, bool) {
	return member.Emit{To: h.to, Msg: wire.Shuffle{}}, true
}
func (h *holder) Handle(wire.NodeID, wire.Message) (member.Emit, bool) { return member.Emit{}, false }

// countTick counts its protocol rounds and never emits.
type countTick struct{ n int }

func (c *countTick) Sample(int) []wire.NodeID  { return nil }
func (c *countTick) Tick() (member.Emit, bool) { c.n++; return member.Emit{}, false }
func (c *countTick) Handle(wire.NodeID, wire.Message) (member.Emit, bool) {
	return member.Emit{}, false
}

// FuzzArenaRecycling interleaves AddNode / Crash / a second Crash / sends
// to arbitrary (possibly stale) handles at successive barriers, then checks
// the arena's invariants and replays the schedule for bit-identity. After
// every barrier and after Run, AppendLive must list exactly the model's
// live handles, in slot order. Each
// input byte is one barrier action: the low two bits select the op, the
// high six select the target.
func FuzzArenaRecycling(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 3, 3, 3})
	f.Add([]byte{1, 2, 0, 1, 2, 0, 1, 2, 0, 255, 254, 253})
	f.Add([]byte{3, 7, 11, 15, 19, 23, 2, 2, 2, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 48 {
			data = data[:48]
		}
		type outcome struct {
			total    simnet.Stats
			fired    uint64
			stale    uint64
			added    int
			recycled int
			n        int
			live     int
			cur      []NodeID
		}
		run := func() outcome {
			e, err := New(Config{Shards: 2, Seed: 5, Net: flatNet(5 * time.Millisecond)})
			if err != nil {
				t.Fatal(err)
			}
			env0 := e.NodeEnv(0, NewRand(1))
			e.AddNode(&recorder{env: env0}, shaping.Unlimited, 0)
			// Model state, mutated by the barrier callbacks in order.
			handles := []NodeID{0}      // every handle ever minted
			liveIDs := []NodeID{0}      // currently alive
			var crashed []NodeID        // crashed, their slots queued or reused
			cur := map[int]NodeID{0: 0} // slot -> current incarnation
			// checkLive holds AppendLive to the model: the live handles, in
			// slot order, appended after what dst already holds.
			checkLive := func(where string) {
				want := slices.Clone(liveIDs)
				slices.SortFunc(want, func(a, b NodeID) int { return Slot(a) - Slot(b) })
				head := []NodeID{7}
				if got := e.AppendLive(head); !slices.Equal(got[:1], head) || !slices.Equal(got[1:], want) {
					t.Fatalf("%s: AppendLive = %v after its head, model says %v", where, got[1:], want)
				}
			}
			for i, b := range data {
				b := b
				e.AtBarrier(time.Duration(i+1)*10*time.Millisecond, func() {
					defer checkLive(fmt.Sprintf("barrier %d (op %d)", i, b&3))
					sel := int(b >> 2)
					switch b & 3 {
					case 0: // admit
						want := e.PeekNextID()
						id := e.AddNode(sink{}, shaping.Unlimited, 0)
						if id != want {
							t.Fatalf("AddNode minted %d, PeekNextID promised %d", id, want)
						}
						handles = append(handles, id)
						liveIDs = append(liveIDs, id)
						cur[Slot(id)] = id
					case 1: // crash a live non-hub node
						if len(liveIDs) < 2 {
							return
						}
						i := 1 + sel%(len(liveIDs)-1)
						victim := liveIDs[i]
						liveIDs = append(liveIDs[:i], liveIDs[i+1:]...)
						crashed = append(crashed, victim)
						e.Crash(victim)
					case 2: // crash a crashed node again: nothing changes
						if len(crashed) == 0 {
							return
						}
						victim := crashed[sel%len(crashed)]
						if cur[Slot(victim)] != victim {
							return // its slot was reused: the handle is stale
						}
						live, queued, next := e.Live(), len(e.free)-e.freeHead, e.PeekNextID()
						e.Crash(victim)
						if e.Live() != live || len(e.free)-e.freeHead != queued || e.PeekNextID() != next {
							t.Fatalf("a second Crash of %d changed Live %d→%d, the queue %d→%d, the next id %d→%d",
								victim, live, e.Live(), queued, len(e.free)-e.freeHead, next, e.PeekNextID())
						}
					case 3: // hub sends to any handle ever minted
						env0.Send(handles[sel%len(handles)], wire.FeedMe{})
					}
				})
			}
			if err := e.Run(time.Duration(len(data)+2) * 10 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			out := outcome{
				total:    e.TotalStats(),
				fired:    e.Fired(),
				stale:    e.StaleDrops(),
				added:    e.Added(),
				recycled: e.Recycled(),
				n:        e.N(),
				live:     e.Live(),
			}
			for slot := 0; slot < e.N(); slot++ {
				id := cur[slot]
				out.cur = append(out.cur, id)
				alive := false
				for _, l := range liveIDs {
					if l == id {
						alive = true
					}
				}
				if e.Alive(id) != alive {
					t.Fatalf("slot %d handle %d: engine alive %v, model %v", slot, id, e.Alive(id), alive)
				}
			}
			if out.live != len(liveIDs) {
				t.Fatalf("Live = %d, model says %d", out.live, len(liveIDs))
			}
			checkLive("after Run")
			if out.n != out.added-out.recycled {
				t.Fatalf("N %d != Added %d - Recycled %d", out.n, out.added, out.recycled)
			}
			assertConserved(t, out.total)
			return out
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("replay diverged:\n%+v\n%+v", a, b)
		}
	})
}

// sendOneID sends a one-id message of the kind on the typed route: it
// rides in its event.
func sendOneID(v *NodeEnv, to NodeID, kind wire.Kind) {
	ids := []stream.PacketID{42}
	if kind == wire.KindServe {
		v.SendServe(to, ids, 100)
	} else {
		v.SendIDs(to, kind, ids)
	}
}

// TestOneIDMessageDrops takes one-id PROPOSEs, REQUESTs and SERVEs, which
// ride in their events and never in a slab record, through every way the
// liveness word ends a delivery, on one shard and across two: to a stale
// destination (StaleDrops), from a stale source, and to a crashed destination (DeadDrops on the destination). In
// each case the message is counted sent once and dropped once, so sent =
// received + drops exactly, and no one else sees it.
func TestOneIDMessageDrops(t *testing.T) {
	// run plays the case's schedule and returns the engine after the run.
	run := func(t *testing.T, shards int, set func(e *Engine, env0, env1 *NodeEnv, kind wire.Kind), kind wire.Kind) *Engine {
		t.Helper()
		e, err := New(Config{Shards: shards, Net: flatNet(10 * time.Millisecond)})
		if err != nil {
			t.Fatal(err)
		}
		env0, env1 := e.NodeEnv(0, NewRand(1)), e.NodeEnv(1, NewRand(2))
		e.AddNode(sinkTyped{}, shaping.Unlimited, 0)
		// 1 kbps: a one-id message takes from ≈90 ms (PROPOSE) to ≈1 s
		// (SERVE of 100 B) to leave node 1's uplink.
		e.AddNode(sinkTyped{}, 1000, 1<<20)
		set(e, env0, env1, kind)
		if err := e.Run(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		for _, s := range e.shards {
			if s.msgs.Len() != 0 {
				t.Fatalf("shard %d drew %d slab records for one-id messages", s.id, s.msgs.Len())
			}
		}
		return e
	}
	// recycle crashes node 1 at 20 ms and puts a new node in its slot at
	// 30 ms.
	recycle := func(e *Engine) {
		e.AtBarrier(20*time.Millisecond, func() { e.Crash(1) })
		e.AtBarrier(30*time.Millisecond, func() {
			if id := e.AddNode(sinkTyped{}, shaping.Unlimited, 0); id != makeID(1, 1) {
				t.Fatalf("reuse minted %d, want slot 1 at generation 1", id)
			}
		})
	}
	cases := []struct {
		name string
		set  func(e *Engine, env0, env1 *NodeEnv, kind wire.Kind)
		// stale and dead are the drops expected in StaleDrops and in the
		// DeadDrops of node 0 and of slot 1.
		stale, dead0, dead1 uint64
	}{
		{"stale-destination", func(e *Engine, env0, _ *NodeEnv, kind wire.Kind) {
			// In flight at 25 ms to slot 1's first incarnation, arriving at
			// 35 ms, after the slot is reused.
			recycle(e)
			e.AtBarrier(25*time.Millisecond, func() { sendOneID(env0, 1, kind) })
		}, 1, 0, 0},
		{"stale-source", func(e *Engine, _, env1 *NodeEnv, kind wire.Kind) {
			// Sent at 15 ms, it leaves the slow uplink after the slot is
			// reused and reaches a live node 0 from a stale handle.
			recycle(e)
			e.AtBarrier(15*time.Millisecond, func() { sendOneID(env1, 0, kind) })
		}, 0, 1, 0},
		{"crashed-destination", func(e *Engine, env0, _ *NodeEnv, kind wire.Kind) {
			e.AtBarrier(0, func() { sendOneID(env0, 1, kind) })
			e.AtBarrier(5*time.Millisecond, func() { e.Crash(1) })
		}, 0, 0, 1},
	}
	for _, shards := range []int{1, 2} {
		for _, c := range cases {
			for _, kind := range []wire.Kind{wire.KindPropose, wire.KindRequest, wire.KindServe} {
				t.Run(fmt.Sprintf("%d-shards/%s/%v", shards, c.name, kind), func(t *testing.T) {
					e := run(t, shards, c.set, kind)
					total := e.TotalStats()
					slot1 := makeID(1, uint16(e.live[1]>>liveGenShift))
					if e.StaleDrops() != c.stale || e.NodeStats(0).DeadDrops != c.dead0 || e.NodeStats(slot1).DeadDrops != c.dead1 {
						t.Fatalf("stale drops %d, dead drops at node 0 %d and at slot 1 %d; want %d, %d, %d",
							e.StaleDrops(), e.NodeStats(0).DeadDrops, e.NodeStats(slot1).DeadDrops, c.stale, c.dead0, c.dead1)
					}
					if total.SentMsgs[kind] != 1 || total.RecvMsgs[kind] != 0 || total.DeadDrops != 1 {
						t.Fatalf("%v: %d sent, %d received, %d dead drops; want 1, 0, 1", kind, total.SentMsgs[kind], total.RecvMsgs[kind], total.DeadDrops)
					}
					assertConserved(t, total)
				})
			}
		}
	}
}

// TestLivenessWordMatchesArena plays random AddNode / Crash sequences —
// recycling slots FIFO, at setup —
// against a plain model of the arena, long enough that slots reach maxGen
// and retire. After every step each slot's liveness word is the model's
// gen<<1 | alive, and Alive, lookup, liveNode, Live and PeekNextID agree
// with the model for the slot's current handle, its previous one and a
// handle past the arena.
func TestLivenessWordMatchesArena(t *testing.T) {
	type slot struct {
		gen   int
		alive bool
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e, err := New(Config{Shards: 2, Net: flatNet(time.Millisecond)})
		if err != nil {
			t.Fatal(err)
		}
		var model []slot
		var free []int // the model's recyclable slots, oldest first
		handle := func(s int) NodeID { return makeID(s, uint16(model[s].gen)) }
		check := func(step int, touched int) {
			t.Helper()
			live := 0
			for s, m := range model {
				want := uint32(m.gen)<<liveGenShift | map[bool]uint32{true: liveAlive}[m.alive]
				if e.live[s] != want {
					t.Fatalf("seed %d step %d: slot %d liveness word %#x, model %#x (%+v)", seed, step, s, e.live[s], want, m)
				}
				id := handle(s)
				if e.Alive(id) != m.alive || e.lookup("check", id) != e.nodes.At(s) || (e.liveNode(id) != nil) != m.alive {
					t.Fatalf("seed %d step %d: slot %d handle %d: Alive %v, liveNode %v; model %+v", seed, step, s, id, e.Alive(id), e.liveNode(id) != nil, m)
				}
				if m.alive {
					live++
				}
			}
			if e.Live() != live {
				t.Fatalf("seed %d step %d: Live = %d, model %d", seed, step, e.Live(), live)
			}
			next := NodeID(len(model))
			if len(free) > 0 {
				next = makeID(free[0], uint16(model[free[0]].gen+1))
			}
			if got := e.PeekNextID(); got != next {
				t.Fatalf("seed %d step %d: PeekNextID = %d, model %d", seed, step, got, next)
			}
			if past := NodeID(len(model)); e.liveNode(past) != nil {
				t.Fatalf("seed %d step %d: liveNode resolves %d, past the arena", seed, step, past)
			}
			if touched >= 0 && model[touched].gen > 0 {
				old := makeID(touched, uint16(model[touched].gen-1))
				if e.liveNode(old) != nil {
					t.Fatalf("seed %d step %d: liveNode resolves the stale handle %d", seed, step, old)
				}
				mustPanicContains(t, "lookup of a stale handle", "stale handle", func() { e.lookup("check", old) })
			}
		}
		retired := 0
		for step := 0; step < 40000; step++ {
			var alive, down []int
			for s, m := range model {
				if m.alive {
					alive = append(alive, s)
				} else {
					down = append(down, s)
				}
			}
			touched := -1
			switch r := rng.Intn(3); {
			case r == 0 && len(alive) < 3 || len(model) == 0:
				id := e.AddNode(sink{}, shaping.Unlimited, 0)
				if len(free) > 0 {
					touched, free = free[0], free[1:]
					model[touched] = slot{gen: model[touched].gen + 1, alive: true}
				} else {
					touched = len(model)
					model = append(model, slot{alive: true})
				}
				if id != handle(touched) {
					t.Fatalf("seed %d step %d: AddNode minted %d, model %d", seed, step, id, handle(touched))
				}
			case r == 1 && len(alive) > 0:
				touched = alive[rng.Intn(len(alive))]
				e.Crash(handle(touched))
				model[touched].alive = false
				if model[touched].gen < maxGen {
					free = append(free, touched)
				} else {
					retired++
				}
			case len(down) > 0:
				touched = down[rng.Intn(len(down))]
				e.Crash(handle(touched)) // a second Crash changes nothing
			}
			check(step, touched)
		}
		if retired == 0 {
			t.Fatalf("seed %d: no slot reached generation %d and retired", seed, maxGen)
		}
	}
}
