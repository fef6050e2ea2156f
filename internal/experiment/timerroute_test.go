package experiment

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"gossipstream/internal/core"
	"gossipstream/internal/megasim"
	"gossipstream/internal/member"
	"gossipstream/internal/stream"
	"gossipstream/internal/wire"
)

// The sharded engine offers a peer two ways to arm its timers: flat
// records (core.TimerEnv, taken when the engine delivers to the peer
// itself) and closures through Env.After (taken behind any wrapper). The
// benchmark's traced twin wraps every seam and so runs on the second, while
// the runs it is compared with take the first; these tests keep the two
// event for event the same.

// embeddedEnv hides a NodeEnv the way benchmark/twin.go does: embedded,
// with After intercepted. Embedding promotes NodeEnv's TimerEnv methods, so
// it is the handler wrapper below — the engine no longer delivers to the
// peer itself — that keeps the peer off the flat route.
type embeddedEnv struct {
	*megasim.NodeEnv
	afters *atomic.Int64
}

func (e *embeddedEnv) After(d time.Duration, fn func()) func() {
	e.afters.Add(1)
	return e.NodeEnv.After(d, fn)
}

// fiveMethodEnv is a core.Env and nothing more.
type fiveMethodEnv struct {
	core.Env
	afters *atomic.Int64
}

func (e *fiveMethodEnv) After(d time.Duration, fn func()) func() {
	e.afters.Add(1)
	return e.Env.After(d, fn)
}

// messagesOnly is a megasim.Handler that is not a TimerHandler.
type messagesOnly struct{ p *core.Peer }

func (h messagesOnly) HandleMessage(from wire.NodeID, msg wire.Message) { h.p.HandleMessage(from, msg) }

// handBuilt is a full-view deployment built on the engine's public seams,
// call for call what runSharded does.
type handBuilt struct {
	eng    *megasim.Engine
	peers  []*core.Peer
	afters atomic.Int64 // After calls seen by the Env wrappers, on any shard
}

func buildByHand(t *testing.T, cfg Config, wrapEnv func(*megasim.NodeEnv, *atomic.Int64) core.Env, wrapPeer func(*core.Peer) megasim.Handler) *handBuilt {
	t.Helper()
	eng, err := megasim.New(megasim.Config{Net: cfg.Net, Shards: cfg.Shards, Seed: cfg.Seed, Queue: cfg.Queue})
	if err != nil {
		t.Fatal(err)
	}
	src, err := stream.NewSource(cfg.Layout, cfg.Seed+1)
	if err != nil {
		t.Fatal(err)
	}
	h := &handBuilt{eng: eng, peers: make([]*core.Peer, cfg.Nodes)}
	for i := range h.peers {
		id := wire.NodeID(i)
		rng := megasim.NewRand(cfg.Seed<<20 + int64(id))
		env := wrapEnv(eng.NodeEnv(id, rng), &h.afters)
		sampler := member.NewSparseView(id, cfg.Nodes, rng)
		var p *core.Peer
		if i == 0 {
			p, err = core.NewSourcePeer(env, cfg.Protocol, sampler, src)
		} else {
			p, err = core.NewPeer(env, cfg.Protocol, sampler, cfg.Layout)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := eng.AddNode(wrapPeer(p), nodeCap(cfg, i), cfg.QueueBytes); got != id {
			t.Fatalf("node id drift: got %d, want %d", got, id)
		}
		h.peers[i] = p
	}
	return h
}

func (h *handBuilt) run(t *testing.T, cfg Config) {
	t.Helper()
	for _, p := range h.peers {
		p.Start()
	}
	if err := h.eng.Run(cfg.Layout.Duration() + cfg.Drain); err != nil {
		t.Fatal(err)
	}
}

func asIs(env *megasim.NodeEnv, _ *atomic.Int64) core.Env     { return env }
func peerItself(p *core.Peer) megasim.Handler                 { return p }
func behindWrapper(p *core.Peer) megasim.Handler              { return messagesOnly{p} }
func embedded(env *megasim.NodeEnv, n *atomic.Int64) core.Env { return &embeddedEnv{env, n} }
func fiveMethod(env *megasim.NodeEnv, n *atomic.Int64) core.Env {
	return &fiveMethodEnv{env, n}
}

// timerRouteConfig is a small two-shard deployment lossy enough that
// retransmission timers fire and re-request.
func timerRouteConfig() Config {
	cfg := smallConfig()
	cfg.Nodes = 60
	cfg.Layout.Windows = 6
	cfg.Shards = 2
	cfg.Net.LossRate = 0.05
	return cfg
}

func TestTimerRoutesAreTwins(t *testing.T) {
	cfg := timerRouteConfig()
	runner, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	flat := buildByHand(t, cfg, asIs, peerItself)
	flat.run(t, cfg)
	if flat.afters.Load() != 0 {
		t.Fatal("the unwrapped deployment counted After calls")
	}
	var retransmissions int
	for _, p := range flat.peers {
		retransmissions += p.Counters().Retransmissions
	}
	if retransmissions == 0 {
		t.Fatal("no retransmission fired: the deployment does not exercise the retransmission timers")
	}
	// The hand-built deployment is the runner's: same events, same traffic.
	if got, want := flat.eng.Fired(), runner.Events; got != want {
		t.Fatalf("hand-built deployment fired %d events, the runner %d", got, want)
	}
	if got, want := flat.eng.TotalStats(), runner.TotalTraffic; got != want {
		t.Fatalf("hand-built deployment's traffic %+v, the runner's %+v", got, want)
	}

	for _, tc := range []struct {
		name     string
		wrapEnv  func(*megasim.NodeEnv, *atomic.Int64) core.Env
		wrapPeer func(*core.Peer) megasim.Handler
	}{
		// What benchmark/twin.go builds.
		{"embedded-env-behind-handler", embedded, behindWrapper},
		// An Env with no sixth method, the engine delivering to the peer.
		{"five-method-env", fiveMethod, peerItself},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain := buildByHand(t, cfg, tc.wrapEnv, tc.wrapPeer)
			plain.run(t, cfg)
			// Every tick and every retransmission check went through After.
			var rounds int
			for _, p := range plain.peers {
				rounds += p.Counters().Rounds
			}
			if afters := int(plain.afters.Load()); afters < rounds {
				t.Fatalf("%d After calls for %d gossip rounds: the wrapped peers did not arm their timers through After", afters, rounds)
			}
			if got, want := plain.eng.Fired(), flat.eng.Fired(); got != want {
				t.Fatalf("%d events over After, %d over flat timers", got, want)
			}
			if got, want := plain.eng.TotalStats(), flat.eng.TotalStats(); got != want {
				t.Fatalf("traffic over After %+v, over flat timers %+v", got, want)
			}
			if got, want := plain.eng.ShardLoads(), flat.eng.ShardLoads(); !reflect.DeepEqual(got, want) {
				t.Fatalf("shard loads over After %+v, over flat timers %+v", got, want)
			}
			for i := range plain.peers {
				if got, want := plain.peers[i].Counters(), flat.peers[i].Counters(); got != want {
					t.Fatalf("node %d: counters over After %+v, over flat timers %+v", i, got, want)
				}
				if !reflect.DeepEqual(plain.peers[i].Receiver(), flat.peers[i].Receiver()) {
					t.Fatalf("node %d: receivers differ between the two timer routes", i)
				}
			}
		})
	}
}

// TestStopStartKeepsOneTickChain restarts every peer mid-run on both timer
// routes. A flat tick cannot be cancelled, so the chain a Stop leaves
// behind must end on its own instead of running beside the new one: after
// the restart a peer must still make one round per gossip period.
func TestStopStartKeepsOneTickChain(t *testing.T) {
	cfg := timerRouteConfig()
	restartAt := cfg.Layout.Duration() / 2
	end := cfg.Layout.Duration() + cfg.Drain
	period := cfg.Protocol.GossipPeriod
	for _, tc := range []struct {
		name     string
		wrapEnv  func(*megasim.NodeEnv, *atomic.Int64) core.Env
		wrapPeer func(*core.Peer) megasim.Handler
	}{
		{"flat", asIs, peerItself},
		{"after", embedded, behindWrapper},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := buildByHand(t, cfg, tc.wrapEnv, tc.wrapPeer)
			before := make([]int, len(h.peers))
			h.eng.AtBarrier(restartAt, func() {
				for i, p := range h.peers {
					before[i] = p.Counters().Rounds
					p.Stop()
					p.Start()
				}
			})
			h.run(t, cfg)
			for i, p := range h.peers {
				// The restart draws a new phase, so the count is exact only
				// to within one round either way.
				got := p.Counters().Rounds - before[i]
				want := int((end - restartAt) / period)
				if got < want-1 || got > want+1 {
					t.Fatalf("node %d made %d rounds in the %v after its restart, want %d: the tick chain doubled or died", i, got, end-restartAt, want)
				}
			}
		})
	}
}
