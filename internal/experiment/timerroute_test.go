package experiment

import (
	"fmt"
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

// The sharded engine offers a peer two routes. On the flat one — taken when
// the engine delivers to the peer itself and the peer's Env is the engine's
// (core.TimerEnv) — timers are flat records and PROPOSE, REQUEST and SERVE
// travel unboxed through SendIDs/SendServe and HandleIDs — a SERVE as the
// ids of its packets.
// On the generic one — taken behind any wrapper — timers are closures
// through Env.After and messages are boxed through Env.Send and
// HandleMessage. The benchmark's traced twin wraps every seam and so runs
// on the second, while the runs it is compared with take the first; these
// tests keep the two event for event the same.

// seamCounts is what the wrappers see of the generic route, on any shard.
type seamCounts struct {
	afters  atomic.Int64 // Env.After calls
	sends   atomic.Int64 // Env.Send calls carrying a PROPOSE, REQUEST or SERVE
	handled atomic.Int64 // Handler.HandleMessage calls carrying one
}

func protocolMessage(msg wire.Message) bool {
	k := msg.Kind()
	return k == wire.KindPropose || k == wire.KindRequest || k == wire.KindServe
}

// embeddedEnv hides a NodeEnv the way benchmark/twin.go does: embedded,
// with Send and After intercepted. Embedding promotes NodeEnv's TimerEnv
// methods, so it is the handler wrapper below — the engine no longer
// delivers to the peer itself — that keeps the peer off the flat route.
type embeddedEnv struct {
	*megasim.NodeEnv
	n *seamCounts
}

func (e *embeddedEnv) After(d time.Duration, fn func()) func() {
	e.n.afters.Add(1)
	return e.NodeEnv.After(d, fn)
}

func (e *embeddedEnv) Send(to wire.NodeID, msg wire.Message) {
	if protocolMessage(msg) {
		e.n.sends.Add(1)
	}
	e.NodeEnv.Send(to, msg)
}

// fiveMethodEnv is a core.Env and nothing more.
type fiveMethodEnv struct {
	core.Env
	n *seamCounts
}

func (e *fiveMethodEnv) After(d time.Duration, fn func()) func() {
	e.n.afters.Add(1)
	return e.Env.After(d, fn)
}

func (e *fiveMethodEnv) Send(to wire.NodeID, msg wire.Message) {
	if protocolMessage(msg) {
		e.n.sends.Add(1)
	}
	e.Env.Send(to, msg)
}

// messagesOnly is a megasim.Handler that is not a TimerHandler.
type messagesOnly struct {
	p *core.Peer
	n *seamCounts
}

func (h messagesOnly) HandleMessage(from wire.NodeID, msg wire.Message) {
	if protocolMessage(msg) {
		h.n.handled.Add(1)
	}
	h.p.HandleMessage(from, msg)
}

// handBuilt is a full-view deployment built on the engine's public seams,
// call for call what Run does.
type handBuilt struct {
	eng   *megasim.Engine
	peers []*core.Peer
	seen  seamCounts
}

type (
	envWrapper  func(*megasim.NodeEnv, *seamCounts) core.Env
	peerWrapper func(*core.Peer, *seamCounts) megasim.Handler
)

func buildByHand(t *testing.T, cfg Config, wrapEnv envWrapper, wrapPeer peerWrapper) *handBuilt {
	t.Helper()
	eng, err := megasim.New(megasim.Config{Net: cfg.Net, Shards: cfg.Shards, Seed: cfg.Seed})
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
		env := wrapEnv(eng.NodeEnv(id, rng), &h.seen)
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
		if got := eng.AddNode(wrapPeer(p, &h.seen), nodeCap(cfg, i), cfg.QueueBytes); got != id {
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

func asIs(env *megasim.NodeEnv, _ *seamCounts) core.Env         { return env }
func peerItself(p *core.Peer, _ *seamCounts) megasim.Handler    { return p }
func behindWrapper(p *core.Peer, n *seamCounts) megasim.Handler { return messagesOnly{p, n} }
func embedded(env *megasim.NodeEnv, n *seamCounts) core.Env     { return &embeddedEnv{env, n} }
func fiveMethod(env *megasim.NodeEnv, n *seamCounts) core.Env   { return &fiveMethodEnv{env, n} }

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

// TestRoutesAreTwins runs one deployment four ways — through the runner
// and hand-built on the engine's public seams (both on the flat route),
// and hand-built behind the two wrapper shapes that force the generic
// route — on one shard and on two. All four must agree event for event:
// events fired, network-wide traffic, per-shard loads, every node's
// counters and receiver.
func TestRoutesAreTwins(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d-shards", shards), func(t *testing.T) {
			cfg := timerRouteConfig()
			cfg.Shards = shards
			routesAreTwins(t, cfg)
		})
	}
}

func routesAreTwins(t *testing.T, cfg Config) {
	runner, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	flat := buildByHand(t, cfg, asIs, peerItself)
	flat.run(t, cfg)
	var sent core.Counters // summed over the deployment
	for _, p := range flat.peers {
		c := p.Counters()
		sent.ProposesSent += c.ProposesSent
		sent.RequestsSent += c.RequestsSent
		sent.ServesSent += c.ServesSent
		sent.Retransmissions += c.Retransmissions
		sent.Rounds += c.Rounds
	}
	if sent.Retransmissions == 0 {
		t.Fatal("no retransmission fired: the deployment does not exercise the retransmission timers")
	}
	protocolSends := int64(sent.ProposesSent + sent.RequestsSent + sent.ServesSent)
	// The hand-built deployment is the runner's: same events, same traffic.
	if got, want := flat.eng.Fired(), runner.Events; got != want {
		t.Fatalf("hand-built deployment fired %d events, the runner %d", got, want)
	}
	if got, want := flat.eng.TotalStats(), runner.TotalTraffic; got != want {
		t.Fatalf("hand-built deployment's traffic %+v, the runner's %+v", got, want)
	}
	if got, want := flat.eng.ShardLoads(), runner.ShardLoads; !reflect.DeepEqual(got, want) {
		t.Fatalf("hand-built deployment's shard loads %+v, the runner's %+v", got, want)
	}
	byID := make(map[wire.NodeID]NodeResult, len(runner.Nodes))
	for _, n := range runner.Nodes {
		byID[n.ID] = n
	}
	for i := 1; i < len(flat.peers); i++ {
		if got, want := flat.peers[i].Counters(), byID[wire.NodeID(i)].Counters; got != want {
			t.Fatalf("node %d: hand-built counters %+v, the runner's %+v", i, got, want)
		}
	}

	for _, tc := range []struct {
		name     string
		wrapEnv  envWrapper
		wrapPeer peerWrapper
		// boxedIn: deliveries reach the peer boxed, through the wrapper.
		boxedIn bool
	}{
		// What benchmark/twin.go builds: generic both ways.
		{"embedded-env-behind-handler", embedded, behindWrapper, true},
		// An Env with no sixth method, the engine delivering to the peer:
		// boxed out, typed in.
		{"five-method-env", fiveMethod, peerItself, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain := buildByHand(t, cfg, tc.wrapEnv, tc.wrapPeer)
			plain.run(t, cfg)
			// Every tick and every retransmission timer went through After,
			// every protocol message through Send.
			if afters := plain.seen.afters.Load(); afters < int64(sent.Rounds) {
				t.Fatalf("%d After calls for %d gossip rounds: the wrapped peers did not arm their timers through After", afters, sent.Rounds)
			}
			if sends := plain.seen.sends.Load(); sends != protocolSends {
				t.Fatalf("%d PROPOSE/REQUEST/SERVEs went through Send, the peers count %d sent: the wrapped peers did not send boxed", sends, protocolSends)
			}
			if handled := plain.seen.handled.Load(); (handled > 0) != tc.boxedIn {
				t.Fatalf("%d protocol messages were delivered boxed through the wrapper, want some: %v", handled, tc.boxedIn)
			}
			if got, want := plain.eng.Fired(), flat.eng.Fired(); got != want {
				t.Fatalf("%d events over the generic route, %d over the flat one", got, want)
			}
			if got, want := plain.eng.TotalStats(), flat.eng.TotalStats(); got != want {
				t.Fatalf("traffic over the generic route %+v, over the flat one %+v", got, want)
			}
			if got, want := plain.eng.ShardLoads(), flat.eng.ShardLoads(); !reflect.DeepEqual(got, want) {
				t.Fatalf("shard loads over the generic route %+v, over the flat one %+v", got, want)
			}
			for i := range plain.peers {
				if got, want := plain.peers[i].Counters(), flat.peers[i].Counters(); got != want {
					t.Fatalf("node %d: counters over the generic route %+v, over the flat one %+v", i, got, want)
				}
				if !reflect.DeepEqual(plain.peers[i].Receiver(), flat.peers[i].Receiver()) {
					t.Fatalf("node %d: receivers differ between the two routes", i)
				}
			}
		})
	}
}

// TestRoutesAreTwinsUnderChurn puts the runner itself behind the generic
// wrappers (nodeSeam) on a Cyclon deployment with Poisson joins and
// announced departures, where everything else a message can be crosses
// the slab too: SHUFFLEs and LEAVEs ride a record's boxed field, the
// farewells enter through SendFrom at barriers, departed nodes' slots are
// recycled under traffic still addressed to them, and admitted nodes start
// on whichever route their wrapper leaves them. The whole Result must not
// tell the two runs apart.
func TestRoutesAreTwinsUnderChurn(t *testing.T) {
	cfg := gracefulCfg(5, 3, 3)
	cfg.Shards = 2
	cfg.Net.LossRate = 0.05
	flat, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var seen seamCounts
	generic, err := runBehind(cfg, &nodeSeam{
		env:     func(env *megasim.NodeEnv) core.Env { return embedded(env, &seen) },
		handler: func(p *core.Peer) megasim.Handler { return behindWrapper(p, &seen) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen.sends.Load() == 0 || seen.handled.Load() == 0 || seen.afters.Load() == 0 {
		t.Fatalf("the seam saw %d sends, %d deliveries, %d timers: the wrapped run did not take the generic route",
			seen.sends.Load(), seen.handled.Load(), seen.afters.Load())
	}
	var stale uint64
	for _, l := range flat.ShardLoads {
		stale += l.StaleDrops
	}
	leaves := flat.TotalTraffic.SentMsgs[wire.KindLeave]
	joined := 0
	for _, n := range flat.Nodes {
		if n.JoinedAt > 0 {
			joined++
		}
	}
	if stale == 0 || leaves == 0 || joined == 0 || flat.TotalTraffic.SentMsgs[wire.KindShuffle] == 0 {
		t.Fatalf("the run has %d stale-handle drops, %d LEAVEs, %d admissions: it does not exercise what it is for", stale, leaves, joined)
	}
	if flat.Events != generic.Events {
		t.Fatalf("%d events over the flat route, %d over the generic one", flat.Events, generic.Events)
	}
	if flat.TotalTraffic != generic.TotalTraffic {
		t.Fatalf("traffic over the flat route %+v, over the generic one %+v", flat.TotalTraffic, generic.TotalTraffic)
	}
	if !reflect.DeepEqual(flat, generic) {
		t.Fatal("events and traffic agree, yet the two routes' Results differ (shard loads, a node's counters, quality or lifetime, or the final overlay)")
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
		wrapEnv  envWrapper
		wrapPeer peerWrapper
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
