package megasim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"gossipstream/internal/pss"
	"gossipstream/internal/shaping"
	"gossipstream/internal/simnet"
	"gossipstream/internal/wire"
)

// sink is a node handler that ignores everything: these tests exercise the
// membership substrate alone, with no streaming protocol on top.
type sink struct{}

func (sink) HandleMessage(NodeID, wire.Message) {}

// membershipOverlay builds an engine of n silent nodes, each with a
// pss.State attached, bootstrapped with k random peers.
func membershipOverlay(t *testing.T, n, shards int, seed int64, cfg pss.Config, net simnet.Config) (*Engine, []*pss.State) {
	t.Helper()
	e, err := New(Config{Shards: shards, Seed: seed, Net: net})
	if err != nil {
		t.Fatal(err)
	}
	bootRng := rand.New(rand.NewSource(seed + 1))
	states := make([]*pss.State, n)
	for i := 0; i < n; i++ {
		id := NodeID(i)
		boot := make([]wire.NodeID, 0, cfg.ShuffleLen)
		for len(boot) < cfg.ShuffleLen {
			p := wire.NodeID(bootRng.Intn(n))
			if p != id {
				boot = append(boot, p)
			}
		}
		states[i], err = pss.NewState(id, cfg, seed<<20+int64(i), boot)
		if err != nil {
			t.Fatal(err)
		}
		e.AddNode(sink{}, shaping.Unlimited, 0)
		e.AttachSampler(id, states[i], cfg.Period)
	}
	return e, states
}

func TestMembershipShufflesFlow(t *testing.T) {
	cfg := pss.DefaultConfig()
	e, states := membershipOverlay(t, 10, 3, 5, cfg, flatNet(5*time.Millisecond))
	if err := e.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	total := e.TotalStats()
	if total.SentMsgs[wire.KindShuffle] == 0 {
		t.Fatal("no shuffle traffic on the wire")
	}
	if total.RecvMsgs[wire.KindShuffle] == 0 {
		t.Fatal("no shuffle deliveries")
	}
	for i, st := range states {
		if st.ShufflesSent() == 0 {
			t.Fatalf("node %d initiated no shuffles over 10 s", i)
		}
		if len(st.View()) == 0 {
			t.Fatalf("node %d has an empty view", i)
		}
	}
}

// TestMembershipDeterministicReplay: with samplers attached, a fixed
// (seed, shards) pair must reproduce every view and every counter —
// cross-shard shuffle handover happens at barriers in deterministic shard
// order like all other traffic.
func TestMembershipDeterministicReplay(t *testing.T) {
	run := func() ([][]wire.ShuffleEntry, []simnet.Stats, uint64) {
		cfg := pss.DefaultConfig()
		cfg.Period = 200 * time.Millisecond
		e, states := membershipOverlay(t, 40, 4, 11, cfg, simnet.Config{
			BaseLatencyMedian: 5 * time.Millisecond,
			BaseLatencySigma:  0.4,
			JitterFrac:        0.3,
			PairSpread:        0.3,
			LossRate:          0.05,
		})
		if err := e.Run(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		views := make([][]wire.ShuffleEntry, len(states))
		stats := make([]simnet.Stats, len(states))
		for i, st := range states {
			views[i] = st.View()
			stats[i] = e.NodeStats(NodeID(i))
		}
		return views, stats, e.Fired()
	}
	va, sa, fa := run()
	vb, sb, fb := run()
	if fa != fb {
		t.Fatalf("fired %d vs %d across replays", fa, fb)
	}
	if !reflect.DeepEqual(va, vb) {
		t.Fatal("views differ across replays")
	}
	if !reflect.DeepEqual(sa, sb) {
		t.Fatal("per-node stats differ across replays")
	}
}

// TestMembershipCrashedNodesAgeOut is the churn-burst regression: nodes
// crashed at a barrier must rotate out of live views (their descriptors
// stop being refreshed) and their tick chains must end without wedging
// anything.
func TestMembershipCrashedNodesAgeOut(t *testing.T) {
	cfg := pss.Config{ViewSize: 6, ShuffleLen: 3, Period: 100 * time.Millisecond}
	const n, dead = 200, 40
	e, states := membershipOverlay(t, n, 3, 7, cfg, flatNet(5*time.Millisecond))
	e.AtBarrier(2*time.Second, func() {
		for i := 1; i <= dead; i++ {
			e.Crash(NodeID(i))
		}
	})
	if err := e.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	isDead := func(id wire.NodeID) bool { return id >= 1 && id <= dead }
	holders := 0
	for i, st := range states {
		if isDead(wire.NodeID(i)) {
			continue
		}
		for _, entry := range st.View() {
			if isDead(entry.ID) {
				holders++
			}
		}
	}
	// 160 live views × 6 slots = 960; after ~580 post-burst shuffle rounds
	// essentially every dead descriptor must be gone.
	if holders > 10 {
		t.Fatalf("dead nodes still occupy %d view slots across live views", holders)
	}
	// Crashed nodes stopped shuffling after the burst: their tick chains
	// ended instead of sending into the void.
	for i := 1; i <= dead; i++ {
		if sent := states[i].ShufflesSent(); sent > 25 {
			t.Fatalf("crashed node %d kept shuffling (%d sends for a 2 s life at 100 ms period)", i, sent)
		}
	}
}

// TestMembershipShuffleToSamplerlessNodeDropped: SHUFFLE to a node with no
// sampler is discarded like any unknown datagram — mixed populations must
// not crash or leak messages to the protocol handler.
func TestMembershipShuffleToSamplerlessNodeDropped(t *testing.T) {
	e, err := New(Config{Shards: 2, Net: flatNet(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	env0 := e.NodeEnv(0, NewRand(1))
	r1 := &recorder{env: e.NodeEnv(1, NewRand(2))}
	e.AddNode(&recorder{env: env0}, shaping.Unlimited, 0)
	e.AddNode(r1, shaping.Unlimited, 0)
	env0.After(0, func() {
		env0.Send(1, wire.Shuffle{Entries: []wire.ShuffleEntry{{ID: 0}}})
	})
	if err := e.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(r1.froms) != 0 {
		t.Fatal("SHUFFLE leaked to the protocol handler")
	}
	if got := e.NodeStats(1).RecvMsgs[wire.KindShuffle]; got != 1 {
		t.Fatalf("shuffle RecvMsgs = %d, want 1 (received then dropped)", got)
	}
}

func TestAttachSamplerPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	newEngine := func() (*Engine, *pss.State) {
		e, err := New(Config{Shards: 1, Net: flatNet(time.Millisecond)})
		if err != nil {
			t.Fatal(err)
		}
		st, err := pss.NewState(0, pss.DefaultConfig(), 1, []wire.NodeID{1})
		if err != nil {
			t.Fatal(err)
		}
		e.AddNode(sink{}, shaping.Unlimited, 0)
		return e, st
	}
	e, st := newEngine()
	mustPanic("nil sampler", func() { e.AttachSampler(0, nil, time.Second) })
	mustPanic("zero period", func() { e.AttachSampler(0, st, 0) })
	mustPanic("unknown node", func() { e.AttachSampler(9, st, time.Second) })
	if err := e.Run(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	mustPanic("attach after Run", func() { e.AttachSampler(0, st, time.Second) })

	e2, st2 := newEngine()
	e2.AttachSampler(0, st2, time.Second)
	mustPanic("double attach", func() { e2.AttachSampler(0, st2, time.Second) })
}

// TestMembershipInDegreeBalance10k is the scale assertion behind "partial
// views approximate uniform sampling": after 30 virtual seconds of
// shuffling among 10k nodes, descriptors must cover essentially the whole
// population with a balanced in-degree distribution (the in-degree of a
// node is how many views hold its descriptor; sampling uniformity is its
// direct consequence, since Sample draws uniformly from views).
func TestMembershipInDegreeBalance10k(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("10k-node statistical run skipped in -short / race mode")
	}
	cfg := pss.DefaultConfig()
	const n = 10_000
	e, states := membershipOverlay(t, n, 4, 3, cfg, flatNet(20*time.Millisecond))
	if err := e.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	indeg := make([]int, n)
	slots := 0
	for _, st := range states {
		for _, entry := range st.View() {
			indeg[entry.ID]++
			slots++
		}
	}
	covered := 0
	sum, sumSq := 0.0, 0.0
	maxDeg := 0
	for _, d := range indeg {
		if d > 0 {
			covered++
		}
		if d > maxDeg {
			maxDeg = d
		}
		sum += float64(d)
		sumSq += float64(d) * float64(d)
	}
	mean := sum / n
	cv := math.Sqrt(sumSq/n-mean*mean) / mean
	t.Logf("10k in-degree: mean %.1f, max %d, CV %.3f, coverage %d/%d, %d slots",
		mean, maxDeg, cv, covered, n, slots)
	if covered < n*99/100 {
		t.Fatalf("only %d of %d nodes appear in any view", covered, n)
	}
	// The slot-swap merge conserves the global descriptor count, so the
	// in-degree concentrates tightly around ViewSize: measured CV ≈ 0.11
	// and max ≈ 1.5× mean here (keep-youngest merging, replaced in PR 9,
	// measured CV ≈ 0.50 and max ≈ 5× mean; plain Cyclon theory predicts
	// ≈ 1/√ViewSize ≈ 0.22). The bounds below carry margin over the
	// measured steady state while still catching real imbalance —
	// starved nodes, runaway popularity, broken aging or swap rules.
	if cv > 0.2 {
		t.Fatalf("in-degree CV = %.3f, want <= 0.2 (unbalanced overlay)", cv)
	}
	if float64(maxDeg) > 3*mean {
		t.Fatalf("max in-degree %d exceeds 3× mean %.1f", maxDeg, mean)
	}
}
