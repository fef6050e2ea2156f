// Package member implements gossip partner selection — Algorithm 1's
// selectNodes — together with the two proactiveness knobs of the paper's §3:
//
//   - X, the view refresh rate: the output of selectNodes changes every X
//     calls. X = 1 re-randomizes partners every gossip round (the classic
//     theoretical model); X = Never keeps the initial random partners
//     forever, degenerating into a static mesh.
//   - Y, the feed-me rate: every Y rounds a node asks f random nodes to
//     insert it into their partner sets; each recipient replaces one random
//     current partner with the requester.
//
// Selection is uniform over the substrate's membership view. The paper
// assumes global knowledge of the node set and no repair — SparseView models
// exactly that: crashed nodes are never removed. Deployed systems instead
// run a membership gossip layer with partial views; the DynamicSampler
// interface is the engine-facing contract such substrates (internal/pss)
// satisfy, letting the simulation engine drive static and live views
// through one abstraction.
package member

import (
	"fmt"
	"math/rand"
	"slices"

	"gossipstream/internal/wire"
)

// Never disables a rate knob: a refresh rate of Never means partners are
// drawn once and kept forever (the paper's X = ∞); a feed rate of Never
// disables feed-me messages (Y = ∞).
const Never = 0

// Sampler provides uniform random node samples. It abstracts the membership
// substrate: SparseView samples from global knowledge (the paper's model),
// while partial-view protocols (internal/pss) can stand in for it.
type Sampler interface {
	// Sample returns up to k distinct random node ids, never including the
	// local node.
	Sample(k int) []wire.NodeID
}

// Emit is one outbound membership message produced by a dynamic sampler.
// Samplers return emissions instead of sending so their records stay
// engine-agnostic: no captured environment, no timers, no closures — the
// driving engine owns scheduling and transport.
//
// Msg may point into the sampler's scratch (internal/pss reuses one
// *wire.Shuffle): like View.Partners, an emission is valid until the
// sampler's next call.
type Emit struct {
	To  wire.NodeID
	Msg wire.Message
}

// DynamicSampler is the engine-facing contract of a live membership
// substrate (Cyclon partial views, internal/pss), which evolves its view
// through the protocol traffic the engine routes through these methods:
//
//   - Tick advances one protocol round (the engine calls it on the
//     substrate's period) and returns at most one message to transmit.
//   - Handle consumes an inbound membership message and returns at most
//     one reply. Messages of kinds the substrate does not speak are
//     ignored.
//
// Both run on the owning node's scheduler thread; implementations need no
// internal locking. The engine transmits emissions over the same lossy,
// latency-modelled links as protocol traffic, so membership maintenance
// pays for its bandwidth like everything else.
type DynamicSampler interface {
	Sampler
	Tick() (Emit, bool)
	Handle(from wire.NodeID, msg wire.Message) (Emit, bool)
}

// SparseView is a Sampler over static global membership [0, n) minus self
// that stores O(1) state instead of an O(n) permutation array — at 100k+
// nodes a per-node array would dominate all memory. Samples are drawn by
// rejection, which is cheap while k ≪ n; for tiny systems (k close to n)
// it degrades gracefully by enumerating.
type SparseView struct {
	self wire.NodeID
	n    int
	rng  *rand.Rand
}

// NewSparseView returns a constant-memory full-membership sampler for a
// system of n nodes.
func NewSparseView(self wire.NodeID, n int, rng *rand.Rand) *SparseView {
	v := MakeSparseView(self, n, rng)
	return &v
}

// MakeSparseView returns NewSparseView's sampler by value, for owners that
// hold their nodes' samplers in place.
func MakeSparseView(self wire.NodeID, n int, rng *rand.Rand) SparseView {
	if n <= 0 {
		panic(fmt.Sprintf("member: system size %d", n))
	}
	return SparseView{self: self, n: n, rng: rng}
}

// Sample implements Sampler.
func (v *SparseView) Sample(k int) []wire.NodeID { return v.SampleInto(nil, k) }

// SampleInto is Sample drawing into dst's backing, for callers that keep
// one sample at a time (a View refreshing its partners every round): same
// draws, no allocation once dst has room for k ids.
func (v *SparseView) SampleInto(dst []wire.NodeID, k int) []wire.NodeID {
	if k > v.n-1 {
		k = v.n - 1
	}
	if k <= 0 {
		return dst[:0]
	}
	if k*2 >= v.n {
		// Dense request: partial Fisher–Yates over an explicit candidate
		// list (rejection would thrash once most ids are taken).
		all := make([]wire.NodeID, 0, v.n-1)
		for i := 0; i < v.n; i++ {
			if wire.NodeID(i) != v.self {
				all = append(all, wire.NodeID(i))
			}
		}
		for i := 0; i < k; i++ {
			j := i + v.rng.Intn(len(all)-i)
			all[i], all[j] = all[j], all[i]
		}
		return append(dst[:0], all[:k]...)
	}
	out := slices.Grow(dst[:0], k)
draw:
	for len(out) < k {
		id := wire.NodeID(v.rng.Intn(v.n))
		if id == v.self {
			continue
		}
		for _, got := range out {
			if got == id {
				continue draw
			}
		}
		out = append(out, id)
	}
	return out
}

// View yields the communication partners for each gossip round, applying
// the refresh-rate knob X and feed-me insertions.
type View struct {
	sampler Sampler
	// into is sampler when it can draw into the View's own partner buffer
	// (SparseView, pss.State), sparing the allocation of a fresh list per
	// refresh.
	into     intoSampler
	fanout   int
	refresh  int // X; Never = keep forever
	calls    int
	partners []wire.NodeID
	// buf is the backing every draw through into reuses; partners aliases
	// it or is nil.
	buf []wire.NodeID
	rng *rand.Rand
}

// NewView returns a View selecting fanout partners through sampler,
// re-drawing them every refreshEvery calls (X). refreshEvery = Never keeps
// the first draw forever.
func NewView(sampler Sampler, fanout, refreshEvery int, rng *rand.Rand) *View {
	v := MakeView(sampler, fanout, refreshEvery, rng, nil)
	return &v
}

// MakeView returns NewView's View by value, drawing its partners into
// buf's backing (nil: one the first draw allocates) for an owner that
// lends it one with room for fanout ids.
func MakeView(sampler Sampler, fanout, refreshEvery int, rng *rand.Rand, buf []wire.NodeID) View {
	if fanout <= 0 {
		panic(fmt.Sprintf("member: fanout %d", fanout))
	}
	if refreshEvery < 0 {
		panic(fmt.Sprintf("member: refresh rate %d", refreshEvery))
	}
	v := View{sampler: sampler, fanout: fanout, refresh: refreshEvery, rng: rng, buf: buf[:0]}
	v.into, _ = sampler.(intoSampler)
	return v
}

// Buffer returns the backing the view draws its partners into, for an
// owner that lent it one (MakeView) to take back.
func (v *View) Buffer() []wire.NodeID { return v.buf }

// intoSampler is a Sampler that can also draw into the caller's buffer.
type intoSampler interface {
	SampleInto(dst []wire.NodeID, k int) []wire.NodeID
}

// draw replaces the partner set with a fresh sample.
func (v *View) draw() {
	if v.into != nil {
		v.partners = v.into.SampleInto(v.buf, v.fanout)
		if cap(v.partners) > cap(v.buf) {
			v.buf = v.partners[:0]
		}
	} else {
		v.partners = v.sampler.Sample(v.fanout)
	}
}

// Partners returns this round's communication partners, advancing the
// refresh schedule by one call. The returned slice is owned by the View;
// callers must not retain it across rounds.
func (v *View) Partners() []wire.NodeID {
	needRefresh := v.partners == nil
	if v.refresh != Never && v.calls%v.refresh == 0 {
		needRefresh = true
	}
	v.calls++
	if needRefresh {
		v.draw()
	}
	return v.partners
}

// Current returns the partner set without advancing the refresh schedule
// (drawing it first if no round has run yet).
func (v *View) Current() []wire.NodeID {
	if v.partners == nil {
		v.draw()
	}
	return v.partners
}

// Insert handles a feed-me request: requester replaces one uniformly random
// current partner. If the requester is already a partner nothing changes.
// This is the receiving half of knob Y.
func (v *View) Insert(requester wire.NodeID) {
	cur := v.Current()
	if len(cur) == 0 {
		//lint:pooled a view with no partner at all takes its first from a feed-me; into buf's backing when there is one
		v.partners = append(v.buf[:0:cap(v.buf)], requester)
		return
	}
	for _, p := range cur {
		if p == requester {
			return
		}
	}
	cur[v.rng.Intn(len(cur))] = requester
}

// Calls reports how many rounds have consulted this view.
func (v *View) Calls() int { return v.calls }
