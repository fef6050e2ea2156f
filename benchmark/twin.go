package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	gs "gossipstream"
	"gossipstream/internal/core"
	"gossipstream/internal/megasim"
	"gossipstream/internal/member"
	"gossipstream/internal/pss"
	"gossipstream/internal/stream"
	"gossipstream/internal/wire"
)

// A traced twin is a deployment built by hand on the public seams of the
// sharded engine — the same calls, in the same order, with the same seeds as
// the experiment runner's sharded path — with a timing wrapper around every
// seam: each core.Peer sits behind a megasim.Handler, each NodeEnv behind a
// core.Env, each sampler behind a member.Sampler or DynamicSampler. The
// wrappers add no random draw and no event, so the twin fires exactly the
// events of RunExperiment on the same configuration; trace.event_ratio
// reports how well that holds.
//
// The twin covers churn-free deployments only: admission, departure and the
// scoring fold live inside the runner and have no public seam.

// twinDeployment returns the deployment the twin of cfg builds: cfg on the
// sharded engine, churn removed, batch scoring.
func twinDeployment(cfg gs.ExperimentConfig) gs.ExperimentConfig {
	cfg.Churn = nil
	cfg.ChurnProcess = nil
	cfg.StreamingMetrics = false
	cfg.Telemetry = nil
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	return cfg
}

type twinResult struct {
	events   uint64
	runWall  time.Duration // Engine.Run, the span the shares are taken of
	stats    [numSpanKinds]spanStat
	topNS    int64
	counters core.Counters // summed over every peer, source included
	tracers  []*tracer     // one per shard
}

// shardWall is the wall the span shares are fractions of: every shard is
// busy or stalled for the whole of Engine.Run.
func (r *twinResult) shardWall() float64 {
	return float64(r.runWall.Nanoseconds()) * float64(len(r.tracers))
}

// selfShare returns the percentage of shardWall spent in the given kinds'
// own code.
func (r *twinResult) selfShare(kinds ...spanKind) float64 {
	var ns int64
	for _, k := range kinds {
		ns += r.stats[k].SelfNS
	}
	return 100 * float64(ns) / r.shardWall()
}

// loopSelfNS is what no span covers: the engine's own loop — queue pop,
// dispatch, delivery bookkeeping, the sends the engine makes for the
// membership layer, merge, and time stalled at the barrier.
func (r *twinResult) loopSelfNS() float64 { return r.shardWall() - float64(r.topNS) }

// runTwin builds and runs the traced twin of cfg (see twinDeployment).
func runTwin(cfg gs.ExperimentConfig) (*twinResult, error) {
	if len(cfg.Churn) > 0 || cfg.ChurnProcess != nil || cfg.FreeRiders != 0 || len(cfg.UploadCapMix) > 0 {
		return nil, fmt.Errorf("twin: churn, free-riders and mixed caps are not replicated")
	}
	if cfg.Shards < 1 || cfg.Shards > cfg.Nodes {
		return nil, fmt.Errorf("twin: Shards = %d for %d nodes", cfg.Shards, cfg.Nodes)
	}
	eng, err := megasim.New(megasim.Config{Net: cfg.Net, Shards: cfg.Shards, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	src, err := stream.NewSource(cfg.Layout, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	cyclon := cfg.Membership == gs.MembershipCyclon
	pssCfg := cfg.PSS
	if pssCfg == (pss.Config{}) {
		pssCfg = pss.DefaultConfig()
	}
	bootRng := megasim.NewRand(cfg.Seed + 4049)

	clock := wallClock()
	res := &twinResult{tracers: make([]*tracer, cfg.Shards)}
	for i := range res.tracers {
		res.tracers[i] = newTracer(clock, maxRawSpans/cfg.Shards)
	}

	peers := make([]*core.Peer, cfg.Nodes)
	for i := range peers {
		id := wire.NodeID(i)
		tr := res.tracers[i%cfg.Shards] // the engine places slot i on shard i mod Shards
		var boot []wire.NodeID
		if cyclon {
			boot = bootstrapIDs(id, cfg.Nodes, pssCfg.ShuffleLen, bootRng)
		}
		rng := megasim.NewRand(cfg.Seed<<20 + int64(id))
		env := &tracedEnv{NodeEnv: eng.NodeEnv(id, rng), tr: tr, node: int32(i)}
		var sampler member.Sampler
		var st *tracedState
		if cyclon {
			state, err := pss.NewState(id, pssCfg, cfg.Seed<<20+0x707373+int64(id), boot)
			if err != nil {
				return nil, err
			}
			st = &tracedState{st: state, tr: tr, node: int32(i)}
			sampler = st
		} else {
			sampler = &tracedSampler{s: member.NewSparseView(id, cfg.Nodes, rng), tr: tr, node: int32(i)}
		}
		var p *core.Peer
		upBps := cfg.UploadCapBps
		if i == 0 {
			p, err = core.NewSourcePeer(env, cfg.Protocol, sampler, src)
			upBps = cfg.SourceCapBps
		} else {
			p, err = core.NewPeer(env, cfg.Protocol, sampler, cfg.Layout)
		}
		if err != nil {
			return nil, err
		}
		if got := eng.AddNode(&tracedPeer{p: p, tr: tr, node: int32(i)}, upBps, cfg.QueueBytes); got != id {
			return nil, fmt.Errorf("twin: node id drift: got %d, want %d", got, id)
		}
		if st != nil {
			eng.AttachSampler(id, st, pssCfg.Period)
		}
		peers[i] = p
	}
	for _, p := range peers {
		p.Start()
	}

	end := cfg.Layout.Duration() + cfg.Drain
	start := time.Now()
	if err := eng.Run(end); err != nil {
		return nil, err
	}
	res.runWall = time.Since(start)
	res.events = eng.Fired()
	for _, tr := range res.tracers {
		if tr.depth != 0 {
			return nil, fmt.Errorf("twin: %d spans left open", tr.depth)
		}
		for k := range tr.stats {
			res.stats[k].add(tr.stats[k])
		}
		res.topNS += tr.topNS
	}
	for _, p := range peers {
		c := p.Counters()
		res.counters.RequestsSent += c.RequestsSent
		res.counters.Retransmissions += c.Retransmissions
		res.counters.PacketsServed += c.PacketsServed
		res.counters.DuplicateServes += c.DuplicateServes
	}
	return res, nil
}

// bootstrapIDs replicates the runner's Cyclon bootstrap draw: k distinct
// random peers other than self, in ascending order.
func bootstrapIDs(self wire.NodeID, n, k int, rng *rand.Rand) []wire.NodeID {
	var out []wire.NodeID
	for len(out) < k && len(out) < n-1 {
		id := wire.NodeID(rng.Intn(n))
		if id != self && !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// tracedPeer is the megasim.Handler seam: one span per delivered protocol
// message, named after the message kind.
type tracedPeer struct {
	p    *core.Peer
	tr   *tracer
	node int32
}

func (h *tracedPeer) HandleMessage(from wire.NodeID, msg wire.Message) {
	k := spanCoreOther
	switch msg.Kind() {
	case wire.KindPropose:
		k = spanCorePropose
	case wire.KindRequest:
		k = spanCoreRequest
	case wire.KindServe:
		k = spanCoreServe
	}
	h.tr.begin(k, h.node)
	h.p.HandleMessage(from, msg)
	h.tr.end()
}

// tracedEnv is the core.Env seam: Send and After are timed as engine work,
// and the callback After is given is timed as core work when it fires.
type tracedEnv struct {
	*megasim.NodeEnv
	tr   *tracer
	node int32
}

func (e *tracedEnv) Send(to wire.NodeID, msg wire.Message) {
	e.tr.begin(spanSend, e.node)
	e.NodeEnv.Send(to, msg)
	e.tr.end()
}

func (e *tracedEnv) After(d time.Duration, fn func()) func() {
	e.tr.begin(spanAfter, e.node)
	cancel := e.NodeEnv.After(d, func() {
		e.tr.begin(spanCoreTimer, e.node)
		fn()
		e.tr.end()
	})
	e.tr.end()
	return cancel
}

// tracedSampler is the member.Sampler seam over a static view.
type tracedSampler struct {
	s    member.Sampler
	tr   *tracer
	node int32
}

func (s *tracedSampler) Sample(k int) []wire.NodeID {
	s.tr.begin(spanMemberSample, s.node)
	out := s.s.Sample(k)
	s.tr.end()
	return out
}

// tracedState is the member.DynamicSampler seam over a Cyclon record.
type tracedState struct {
	st   *pss.State
	tr   *tracer
	node int32
}

func (s *tracedState) Sample(k int) []wire.NodeID {
	s.tr.begin(spanPssSample, s.node)
	out := s.st.Sample(k)
	s.tr.end()
	return out
}

func (s *tracedState) Tick() (member.Emit, bool) {
	s.tr.begin(spanPssTick, s.node)
	em, ok := s.st.Tick()
	s.tr.end()
	return em, ok
}

func (s *tracedState) Handle(from wire.NodeID, msg wire.Message) (member.Emit, bool) {
	s.tr.begin(spanPssHandle, s.node)
	em, ok := s.st.Handle(from, msg)
	s.tr.end()
	return em, ok
}
