package megasim

import (
	"testing"
	"time"

	"gossipstream/internal/shaping"
)

// TestNodeEnvTable pins where the engine keeps node environments and where
// it places nodes: one environment per arena slot, held by value in chunks
// that never move, so a slot's environment stays put however far the
// table grows and a later incarnation of the slot rebuilds it in place;
// and ShardOf names the shard a node's environment runs on and the node's
// index among that shard's slots, dense from zero.
func TestNodeEnvTable(t *testing.T) {
	const shards = 3
	e, err := New(Config{Shards: shards, Net: flatNet(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	first := e.NodeEnv(0, NewRand(1))
	n := 2<<envShift + 7
	next := make([]int, shards)
	for i := 0; i < n; i++ {
		id := e.AddNode(sink{}, shaping.Unlimited, 0)
		env := e.NodeEnv(id, NewRand(int64(i)))
		shard, index := e.ShardOf(id)
		switch {
		case env.ID() != id:
			t.Fatalf("NodeEnv(%d) is node %d's", id, env.ID())
		case env.sh != e.shards[shard]:
			t.Fatalf("node %d runs on shard %d, ShardOf says %d", id, env.sh.id, shard)
		case index != next[shard]:
			t.Fatalf("node %d is index %d on shard %d, want %d", id, index, shard, next[shard])
		}
		next[shard]++
	}
	if again := e.NodeEnv(0, NewRand(1)); again != first {
		t.Fatal("slot 0's environment moved as the table grew")
	}
	if got, want := e.envs.Chunks(), (n+1<<envShift-1)>>envShift; got != want {
		t.Fatalf("%d chunks for %d slots, want %d", got, n, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { e.NodeEnv(5, nil) }); allocs != 0 {
		t.Fatalf("NodeEnv of a slot the table holds allocates %.1f times", allocs)
	}

	// A later incarnation of slot 5 gets slot 5's environment, rebuilt.
	old := e.NodeEnv(5, NewRand(5))
	e.Crash(5)
	id := e.PeekNextID()
	if Slot(id) != 5 || Gen(id) != 1 {
		t.Fatalf("the next node is %d, want slot 5's next incarnation", id)
	}
	rng := NewRand(55)
	if env := e.NodeEnv(id, rng); env != old || env.ID() != id || env.Rand() != rng {
		t.Fatalf("slot 5's next incarnation has environment %p (id %d), want %p rebuilt for %d", env, env.ID(), old, id)
	}
	if got := e.AddNode(sink{}, shaping.Unlimited, 0); got != id {
		t.Fatalf("AddNode minted %d, PeekNextID promised %d", got, id)
	}
	if shard, index := e.ShardOf(id); shard != 5%shards || index != 5/shards {
		t.Fatalf("slot 5's next incarnation is placed at shard %d index %d, want %d and %d", shard, index, 5%shards, 5/shards)
	}
}
