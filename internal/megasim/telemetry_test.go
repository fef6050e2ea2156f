package megasim

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"gossipstream/internal/shaping"
	"gossipstream/internal/simnet"
	"gossipstream/internal/telemetry"
	"gossipstream/internal/telemetry/teleclock"
	"gossipstream/internal/wire"
)

// loadRun is a chatter population with telemetry hooks — a wall clock,
// and observing barriers every snapEvery that record their instants in
// snaps — returning the engine after Run for accessor checks.
func loadRun(t *testing.T, shards int, snapEvery time.Duration, snaps *[]time.Duration, clock func() int64) *Engine {
	t.Helper()
	cfg := Config{
		Shards: shards,
		Seed:   11,
		Net: simnet.Config{
			LossRate:          0.05,
			BaseLatencyMedian: 5 * time.Millisecond,
			BaseLatencySigma:  0.4,
			JitterFrac:        0.3,
			PairSpread:        0.3,
		},
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	nodes := make([]*chatter, n)
	for i := 0; i < n; i++ {
		env := e.NodeEnv(NodeID(i), NewRand(int64(100+i)))
		nodes[i] = &chatter{env: env, n: n, period: 4 * time.Millisecond}
		e.AddNode(nodes[i], 256_000, 4096)
	}
	for _, c := range nodes {
		c.start()
	}
	const until = 300 * time.Millisecond
	for at := snapEvery; snapEvery > 0 && at <= until; at += snapEvery {
		e.AtBarrier(at, func() {
			if e.Now() != at {
				t.Errorf("barrier at %v observed engine time %v", at, e.Now())
			}
			*snaps = append(*snaps, at)
		})
	}
	e.AtBarrier(100*time.Millisecond, func() { e.Crash(NodeID(n - 1)) })
	if clock != nil {
		e.SetWallClock(clock)
	}
	if err := e.Run(until); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestShardLoadsConsistent(t *testing.T) {
	e := loadRun(t, 4, 0, nil, nil)
	loads := e.ShardLoads()
	if len(loads) != 4 {
		t.Fatalf("got %d shard loads, want 4", len(loads))
	}
	var events, timers, delivers, ticks, out, in uint64
	for i, l := range loads {
		if l.Shard != i {
			t.Fatalf("load %d labeled shard %d", i, l.Shard)
		}
		if l.Windows == 0 {
			t.Fatalf("shard %d ran no windows", i)
		}
		if l.HeapPeak == 0 {
			t.Fatalf("shard %d recorded no heap high-water", i)
		}
		if l.Pending != 0 {
			// Chatter reschedules forever; pending events past the horizon
			// are expected. Just pin the field is non-negative.
			if l.Pending < 0 {
				t.Fatalf("shard %d pending %d", i, l.Pending)
			}
		}
		events += l.Events
		timers += l.Timers
		delivers += l.Delivers
		ticks += l.MemberTicks
		out += l.OutboxOut
		in += l.OutboxIn
	}
	if events != e.Fired() {
		t.Fatalf("shard events sum %d != Fired %d", events, e.Fired())
	}
	if timers+delivers+ticks != events {
		t.Fatalf("per-kind sum %d != events %d", timers+delivers+ticks, events)
	}
	if out != in {
		t.Fatalf("cross-shard conservation: out %d != in %d", out, in)
	}
	if out == 0 {
		t.Fatal("4-shard chatter produced no cross-shard traffic")
	}
	if got := e.Pending(); got < 0 {
		t.Fatalf("Pending() = %d", got)
	}
}

func TestSingleShardHasNoOutboxTraffic(t *testing.T) {
	e := loadRun(t, 1, 0, nil, nil)
	l := e.ShardLoads()[0]
	if l.OutboxOut != 0 || l.OutboxIn != 0 {
		t.Fatalf("single shard moved %d/%d cross-shard messages", l.OutboxOut, l.OutboxIn)
	}
	if l.Delivers == 0 || l.Timers == 0 || l.MemberTicks != 0 {
		t.Fatalf("unexpected kind counts: %+v", l)
	}
}

func TestLiveTracksCrashes(t *testing.T) {
	e, err := New(Config{Shards: 1, Net: flatNet(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		env := e.NodeEnv(NodeID(i), NewRand(int64(i)))
		e.AddNode(&recorder{env: env}, shaping.Unlimited, 0)
	}
	if e.Live() != 3 {
		t.Fatalf("Live = %d, want 3", e.Live())
	}
	e.Crash(1)
	e.Crash(1) // idempotent
	if e.Live() != 2 {
		t.Fatalf("Live = %d after crash, want 2", e.Live())
	}
}

// TestCrashFreesTheNode: Crash at a barrier, while messages are in flight
// toward the node and after, drops its handler, and every delivery to it is
// dead-dropped instead of reaching the cleared handler; it keeps its base
// latency, which pair latencies of draining traffic still read.
func TestCrashFreesTheNode(t *testing.T) {
	const lat = 10 * time.Millisecond
	e, err := New(Config{Shards: 2, Net: flatNet(lat)})
	if err != nil {
		t.Fatal(err)
	}
	env0 := e.NodeEnv(0, NewRand(1))
	e.AddNode(&recorder{env: env0}, shaping.Unlimited, 0)
	e.AddNode(&recorder{env: e.NodeEnv(1, NewRand(2))}, 256_000, 4096)

	env0.After(4*time.Millisecond, func() { env0.Send(1, wire.FeedMe{}) })
	e.AtBarrier(5*time.Millisecond, func() { e.Crash(1) })
	env0.After(30*time.Millisecond, func() { env0.Send(1, wire.FeedMe{}) })
	if err := e.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := e.NodeStats(1).DeadDrops; got == 0 {
		t.Fatal("messages to a crashed node were not dead-dropped")
	}
	if e.BaseLatency(1) <= 0 {
		t.Fatal("crashed node lost its base latency")
	}
	if e.Live() != 1 {
		t.Fatalf("Live = %d, want 1", e.Live())
	}
}

// TestSnapshotsDoNotPerturbTheRun is the zero-observer-effect guarantee:
// a run with observing barriers is bit-identical to the same run without,
// and each barrier runs once, in time order, at its own instant — on four
// shards, whose windows are the lookahead, and on one, whose single window
// the barriers cut.
func TestSnapshotsDoNotPerturbTheRun(t *testing.T) {
	const every, until = 20 * time.Millisecond, 300 * time.Millisecond
	for _, shards := range []int{4, 1} {
		base := loadRun(t, shards, 0, nil, nil)
		var snaps []time.Duration
		obs := loadRun(t, shards, every, &snaps, nil)
		if base.Fired() != obs.Fired() {
			t.Fatalf("%d shards: snapshots changed the event count: %d vs %d", shards, base.Fired(), obs.Fired())
		}
		for i := 0; i < base.N(); i++ {
			if base.NodeStats(NodeID(i)) != obs.NodeStats(NodeID(i)) {
				t.Fatalf("%d shards: snapshots changed node %d's counters", shards, i)
			}
		}
		if len(snaps) != int(until/every) {
			t.Fatalf("%d shards: %d snapshots over %v, want one per %v", shards, len(snaps), until, every)
		}
		for i, at := range snaps {
			if want := time.Duration(i+1) * every; at != want {
				t.Fatalf("%d shards: snapshot %d at %v, want %v", shards, i, at, want)
			}
		}
	}
}

// TestWallProfileSampledOnlyWithClock: without an injected clock the
// profile stays zero; with one (a deterministic counter — no real time
// needed, but shared by both shards, so atomic) every phase accumulates.
func TestWallProfileSampledOnlyWithClock(t *testing.T) {
	e := loadRun(t, 2, 0, nil, nil)
	if w := e.WallProfile(); !reflect.DeepEqual(w, telemetry.WallProfile{}) {
		t.Fatalf("wall profile without clock: %+v", w)
	}
	var ticks atomic.Int64
	e2 := loadRun(t, 2, 0, nil, func() int64 { return ticks.Add(1) })
	w := e2.WallProfile()
	if w.RunNS <= 0 || w.MergeNS <= 0 || w.BarrierNS <= 0 {
		t.Fatalf("wall profile with clock: %+v", w)
	}
	// The fake clock must not perturb the simulation itself.
	if e.Fired() != e2.Fired() {
		t.Fatalf("clock changed the event count: %d vs %d", e.Fired(), e2.Fired())
	}
}

// TestShardBusyTimeWithinPhaseTime: with a clock, each shard reports the
// wall time it spent inside phases, which is positive and no more than the
// supervisor's run + merge time that encloses every phase.
func TestShardBusyTimeWithinPhaseTime(t *testing.T) {
	e := loadRun(t, 2, 0, nil, teleclock.Clock())
	w := e.WallProfile()
	if len(w.ShardBusyNS) != 2 {
		t.Fatalf("ShardBusyNS = %v, want 2 entries", w.ShardBusyNS)
	}
	for i, busy := range w.ShardBusyNS {
		if busy <= 0 || busy > w.RunNS+w.MergeNS {
			t.Fatalf("shard %d busy %d ns, want in (0, %d] (run %d + merge %d)", i, busy, w.RunNS+w.MergeNS, w.RunNS, w.MergeNS)
		}
	}
}

func TestTelemetryHooksRejectLateRegistration(t *testing.T) {
	e := loadRun(t, 1, 0, nil, nil)
	for name, fn := range map[string]func(){
		"AtBarrier":    func() { e.AtBarrier(time.Second, func() {}) },
		"SetWallClock": func() { e.SetWallClock(func() int64 { return 0 }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s after Run did not panic", name)
				}
			}()
			fn()
		}()
	}
}
