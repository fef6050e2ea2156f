package megasim

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"gossipstream/internal/pss"
	"gossipstream/internal/stream"
	"gossipstream/internal/wire"
)

// relay forwards every delivery to the next node: one send, one shaped
// uplink, one latency draw and one delivery per event, no node logic.
type relay struct {
	env  *NodeEnv
	next NodeID
}

func (r *relay) HandleMessage(NodeID, wire.Message) { r.env.Send(r.next, wire.FeedMe{}) }

// ticker is a TimerHandler: it re-arms one flat timer every time it fires
// and forwards every typed delivery to the next node as it came — one
// typed send, one record, one typed delivery per event.
type ticker struct {
	env  *NodeEnv
	next NodeID
}

// tickerPayload is the payload width of the SERVEs tickers forward.
const tickerPayload = 64

func (k *ticker) HandleMessage(NodeID, wire.Message) {}
func (k *ticker) OnTimer(kind uint8, arg uint32)     { k.env.AfterTimer(time.Millisecond, kind, arg) }
func (k *ticker) HandleIDs(_ NodeID, kind wire.Kind, ids []stream.PacketID) {
	if kind == wire.KindServe {
		k.env.SendServe(k.next, ids, tickerPayload)
	} else {
		k.env.SendIDs(k.next, kind, ids)
	}
}

// allocsPerEvent runs the engine to until and returns the heap allocations
// of the whole Run call per executed event. Queue and outbox growth is in
// the count, amortized over the run.
func allocsPerEvent(t *testing.T, eng *Engine, until time.Duration) float64 {
	t.Helper()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := eng.Run(until); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if eng.Fired() < 100_000 {
		t.Fatalf("only %d events fired: too few to amortize set-up", eng.Fired())
	}
	return float64(m1.Mallocs-m0.Mallocs) / float64(eng.Fired())
}

// TestEngineAllocBudget is the engine's allocation budget, the guard
// behind the package doc's "allocates nothing per event": send→deliver —
// of a boxed zero-size message, and of ids and SERVEs of ids on the typed
// route, within a shard and across two — a Cyclon round of pss records and flat
// node timers cost no allocation, an After chain costs the one cancel
// function After must return. Before
// events were pushed by value every scheduled event escaped to the heap (1
// and 3 allocations per event here); before messages moved into the slab a
// typed message could not be sent at all and its boxed form cost the box.
// The slack is for the amortized growth of queue, slab and outboxes.
func TestEngineAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const nodes = 500
	buildOn := func(t *testing.T, shards int, handler func(i int) Handler) (*Engine, []*NodeEnv) {
		eng, err := New(Config{Shards: shards, Net: flatNet(10 * time.Millisecond), Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		envs := make([]*NodeEnv, nodes)
		for i := range envs {
			envs[i] = eng.NodeEnv(eng.PeekNextID(), NewRand(int64(i)))
			eng.AddNode(handler(i), 10_000_000, 1<<20)
		}
		return eng, envs
	}
	build := func(t *testing.T, handler func(i int) Handler) (*Engine, []*NodeEnv) {
		return buildOn(t, 1, handler)
	}

	// Typed messages circulate a ring: every node starts one REQUEST-sized
	// id list (inline in the record), one PROPOSE-sized one (spilled) and a
	// one- and a twelve-packet SERVE of ids (inline and spilled), and
	// forwards what it is delivered. With two shards every hop of the ring
	// crosses shards, through the outbox records.
	ids := make([]stream.PacketID, 40)
	for i := range ids {
		ids[i] = stream.PacketID(i)
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("typed-send-deliver/%d-shards", shards), func(t *testing.T) {
			eng, envs := buildOn(t, shards, func(i int) Handler { return &ticker{next: NodeID((i + 1) % nodes)} })
			for i, env := range envs {
				k := eng.nodes.At(i).handler.(*ticker)
				k.env = env
				env.SendIDs(k.next, wire.KindRequest, ids[:3])
				env.SendIDs(k.next, wire.KindPropose, ids)
				env.SendServe(k.next, ids[i%8:i%8+1], tickerPayload)
				env.SendServe(k.next, ids[8:20], tickerPayload)
			}
			if got := allocsPerEvent(t, eng, 3*time.Second); got > 0.01 {
				t.Fatalf("typed send→deliver allocates %.3f per event on %d shard(s), want 0", got, shards)
			}
			if shards > 1 && eng.ShardLoads()[0].OutboxOut == 0 {
				t.Fatal("no message crossed shards")
			}
		})
	}

	// Every node runs a Cyclon record on a 10 ms period: a tick, a request
	// and a reply per node per period, all of it SHUFFLE traffic that the
	// records build in their scratch and the engine carries unboxed. With
	// two shards about half of them cross, through the outbox records.
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("cyclon-shuffle/%d-shards", shards), func(t *testing.T) {
			cfg := pss.DefaultConfig()
			cfg.Period = 10 * time.Millisecond
			eng, states := membershipOverlay(t, nodes, shards, 3, cfg, flatNet(10*time.Millisecond))
			if got := allocsPerEvent(t, eng, 3*time.Second); got > 0.01 {
				t.Fatalf("a Cyclon round allocates %.3f per event on %d shard(s), want 0", got, shards)
			}
			if states[0].ShufflesAnswered() == 0 || (shards > 1 && eng.ShardLoads()[0].OutboxOut == 0) {
				t.Fatal("no shuffle was answered, or none crossed shards")
			}
		})
	}

	t.Run("send-deliver", func(t *testing.T) {
		eng, envs := build(t, func(i int) Handler { return &relay{next: NodeID((i + 1) % nodes)} })
		for i, env := range envs {
			eng.nodes.At(i).handler.(*relay).env = env
			env.Send(NodeID((i+1)%nodes), wire.FeedMe{})
		}
		if got := allocsPerEvent(t, eng, 3*time.Second); got > 0.01 {
			t.Fatalf("send→deliver allocates %.3f per event, want 0", got)
		}
	})

	t.Run("flat-timer-chain", func(t *testing.T) {
		eng, envs := build(t, func(int) Handler { return &ticker{} })
		for i, env := range envs {
			eng.nodes.At(i).handler.(*ticker).env = env
			if !env.FlatTimers() {
				t.Fatal("a TimerHandler's NodeEnv does not offer flat timers")
			}
			env.AfterTimer(time.Millisecond, 0, uint32(i))
		}
		if got := allocsPerEvent(t, eng, 300*time.Millisecond); got > 0.01 {
			t.Fatalf("a flat timer chain allocates %.3f per event, want 0", got)
		}
	})

	t.Run("after-chain", func(t *testing.T) {
		eng, envs := build(t, func(int) Handler { return &relay{} })
		for _, env := range envs {
			var rearm func()
			rearm = func() { env.After(time.Millisecond, rearm) }
			env.After(time.Millisecond, rearm)
		}
		if got := allocsPerEvent(t, eng, 300*time.Millisecond); got > 1.01 {
			t.Fatalf("a re-arming After chain allocates %.3f per event, want at most 1 (the cancel function)", got)
		}
	})
}
