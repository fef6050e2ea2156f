// Package pss is a Cyclon-style peer sampling service: an optional,
// partial-view membership substrate for the gossip streaming protocol.
//
// The paper assumes global membership knowledge — selectNodes draws
// uniformly from the set of all nodes (Algorithm 1, line 26). Deployed
// systems rarely have that luxury; they run a membership gossip layer
// ([5] in the paper) whose partial views approximate uniform sampling.
// This package provides such a layer so the streaming protocol can be
// evaluated over realistic membership (the membership ablation in
// bench_test.go compares the two).
//
// Protocol (Cyclon): each node keeps a bounded view of aged node
// descriptors. Periodically it removes its oldest descriptor, sends that
// node a sample of its view plus a fresh self-descriptor, and merges the
// sample the target returns. Descriptor ages let stale entries (and
// crashed nodes) rotate out.
//
// Merging performs Cyclon's slot-for-slot swap: incoming descriptors
// first fill empty view slots, then replace descriptors the node just
// sent to its shuffle partner (the initiator remembers the ids of its
// last request's sample; the responder uses its reply's sample), and are
// otherwise dropped. Swap semantics keep the global descriptor count
// conserved, which is what gives Cyclon its near-uniform in-degree
// distribution — measured at 10k nodes the in-degree CV is ≈0.22, versus
// ≈0.50 for the keep-youngest merge this package used before.
//
// # Representation
//
// The protocol state lives in State, a compact per-node record satisfying
// member.DynamicSampler: the bounded view, an 8-byte splitmix64 random
// stream, and two counters — no captured environment, no timers, no
// closures, no wall-clock coupling. Engines own scheduling and transport:
// they call Tick on the shuffle period and route SHUFFLE traffic through
// Handle, transmitting whatever either returns. This is what lets the
// simulation engine (internal/megasim) keep per-shard pss state in its
// node-state arena and hand cross-shard shuffles over at barriers
// deterministically. State is the only driver surface: there is no
// timer-driven wrapper, and a driver with its own clock (the real-time
// UDP driver's, say) would host a State the same way.
//
// Tick and Handle build their SHUFFLE in the record's own scratch and emit
// a pointer to it, so a shuffle round allocates nothing; an emission is
// valid until the record's next call (member.Emit's contract), and the
// driver transmits or copies it first, as megasim does at send.
//
// Shuffles are fire-and-forget, which is what makes barrier-time churn
// harmless: the initiator removes its shuffle target's descriptor before
// sending, so nothing is pending while the request is in flight. If the
// target crashed — even in the same barrier that scheduled the delivery —
// the request is simply lost, the initiator's view has already shed the
// descriptor, and remaining copies elsewhere age out through later
// shuffles. No reply ever wedges.
package pss

import (
	"fmt"
	"slices"
	"time"

	"gossipstream/internal/member"
	"gossipstream/internal/wire"
	"gossipstream/internal/xrand"
)

// Config parameterizes the sampling service.
type Config struct {
	// ViewSize bounds the partial view (classic Cyclon uses 20–50).
	ViewSize int
	// ShuffleLen is the number of descriptors exchanged per shuffle.
	ShuffleLen int
	// Period is the shuffle interval. State itself never reads it; the
	// driving engine does, to schedule Tick calls.
	Period time.Duration
}

// DefaultConfig returns a conventional Cyclon parameterization.
func DefaultConfig() Config {
	return Config{ViewSize: 20, ShuffleLen: 8, Period: time.Second}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.ViewSize <= 0:
		return fmt.Errorf("pss: ViewSize = %d, want > 0", c.ViewSize)
	case c.ShuffleLen <= 0 || c.ShuffleLen > c.ViewSize:
		return fmt.Errorf("pss: ShuffleLen = %d, want in [1, ViewSize=%d]", c.ShuffleLen, c.ViewSize)
	case c.ShuffleLen > wire.MaxShuffleEntries:
		// A request carries ShuffleLen entries, its self-descriptor among
		// them, and a reply as many: each must fit one datagram.
		return fmt.Errorf("pss: ShuffleLen = %d, want at most %d: a SHUFFLE of more entries exceeds the MTU", c.ShuffleLen, wire.MaxShuffleEntries)
	case c.Period <= 0:
		return fmt.Errorf("pss: Period = %v, want > 0", c.Period)
	}
	return nil
}

// maxAge saturates descriptor ages (wire.ShuffleEntry.Age is uint16).
const maxAge = 1<<16 - 1

// tombCap sizes the LEAVE tombstone set in view sizes. Four views' worth
// comfortably outlives the circulating stale copies of any descriptor
// (each view holds at most one) while keeping per-node memory O(ViewSize)
// under unbounded churn.
const tombCap = 4

// State is one node's Cyclon record in compact, engine-driven form; see
// the package comment for the contract. Not safe for concurrent use; the
// driving engine serializes calls, as with the streaming protocol state.
type State struct {
	self       wire.NodeID
	viewSize   int
	shuffleLen int
	rng        xrand.SplitMix64
	view       []wire.ShuffleEntry
	// pending holds the ids sampled into the last shuffle request — the
	// descriptors this node offered its partner, and therefore the slots
	// the partner's reply may take over (Cyclon's swap). Overwritten by
	// each Tick, consumed (and cleared) by the matching reply; shuffles
	// stay fire-and-forget — a lost reply just leaves pending to be
	// overwritten next period, and an unsolicited reply finds it empty
	// and merges into free slots only. Capacity is reused across rounds.
	pending []wire.NodeID
	// tombs holds ids whose LEAVE this node has seen: merge and insert
	// refuse to re-admit them, so stale copies still circulating in other
	// views cannot resurrect a departed descriptor here. The set is a
	// bounded FIFO (tombCap × ViewSize): a tombstone only needs to outlive
	// the stale copies of its descriptor, which age out of the overlay,
	// and under generation-tagged ids a reborn node carries a fresh id the
	// tombstone never matches.
	tombs   []wire.NodeID
	stopped bool
	// out is the emission scratch; sent holds the ids a reply samples
	// while its request merges.
	out  wire.Shuffle
	sent []wire.NodeID

	shufflesSent     int
	shufflesAnswered int
}

// NewState returns a record seeded with bootstrap descriptors (age 0). At
// least one bootstrap entry is required to join the overlay; the common
// pattern seeds each node with a few random peers. All randomness (shuffle
// partner sampling, Sample) comes from a private splitmix64 stream over
// seed.
func NewState(self wire.NodeID, cfg Config, seed int64, bootstrap []wire.NodeID) (*State, error) {
	s := new(State)
	if err := s.Reset(self, cfg, seed, bootstrap); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset makes s the record NewState(self, cfg, seed, bootstrap) would
// return, in place: an owner that holds its nodes' records by value (the
// zero State included) rebuilds a departed node's for its successor. The
// record keeps the capacity of its view and scratch, so a reset record
// that has run before allocates nothing, and behaves from then on exactly
// as a new one would.
func (s *State) Reset(self wire.NodeID, cfg Config, seed int64, bootstrap []wire.NodeID) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cap(s.view) < cfg.ViewSize || cap(s.out.Entries) < cfg.ShuffleLen ||
		cap(s.pending) < cfg.ShuffleLen || cap(s.sent) < cfg.ShuffleLen {
		entries, ids := cfg.Backings()
		s.Lend(cfg, make([]wire.ShuffleEntry, entries), make([]wire.NodeID, ids))
	}
	view, out, pending, sent := s.view[:0], s.out.Entries[:0], s.pending[:0], s.sent[:0]
	*s = State{
		self:       self,
		viewSize:   cfg.ViewSize,
		shuffleLen: cfg.ShuffleLen,
		rng:        xrand.Seeded(seed),
		view:       view,
		pending:    pending,
		tombs:      s.tombs[:0],
		out:        wire.Shuffle{Entries: out},
		sent:       sent,
	}
	for _, id := range bootstrap {
		if id != self {
			s.insert(wire.ShuffleEntry{ID: id})
		}
	}
	return nil
}

// Backings returns the lengths of the two backings a record under c
// holds: its view and emission scratch share one of entries, its two id
// lists one of ids. That is all a record ever holds but its tombstones.
func (c Config) Backings() (entries, ids int) {
	return c.ViewSize + c.ShuffleLen, 2 * c.ShuffleLen
}

// Lend hands the record the backings Reset would otherwise allocate for
// cfg, of the lengths cfg.Backings names; the record keeps them from then
// on. An owner that holds its records by value lends them from a pool of
// its own, so that a fresh record costs no allocation of its own; it calls
// Lend before the record's first Reset.
func (s *State) Lend(cfg Config, entries []wire.ShuffleEntry, ids []wire.NodeID) {
	s.view, s.out.Entries = entries[:0:cfg.ViewSize], entries[cfg.ViewSize:cfg.ViewSize]
	s.pending, s.sent = ids[:0:cfg.ShuffleLen], ids[cfg.ShuffleLen:cfg.ShuffleLen]
}

// Self returns the record's node id.
func (s *State) Self() wire.NodeID { return s.self }

// Stop makes the record inert: Tick emits nothing and Handle ignores all
// traffic. Engines call it when the node crashes or departs; the node's
// descriptors elsewhere then age out of the overlay.
func (s *State) Stop() { s.stopped = true }

// Stopped reports whether the record has been stopped.
func (s *State) Stopped() bool { return s.stopped }

// ViewLen returns the number of descriptors in the view.
func (s *State) ViewLen() int { return len(s.view) }

// ViewAt returns the view's i-th descriptor, without copying the view.
func (s *State) ViewAt(i int) wire.ShuffleEntry { return s.view[i] }

// View returns a copy of the current view.
func (s *State) View() []wire.ShuffleEntry {
	out := make([]wire.ShuffleEntry, len(s.view))
	copy(out, s.view)
	return out
}

// ShufflesSent reports initiated shuffles (metrics).
func (s *State) ShufflesSent() int { return s.shufflesSent }

// ShufflesAnswered reports answered shuffle requests (metrics).
func (s *State) ShufflesAnswered() int { return s.shufflesAnswered }

// Sample implements member.Sampler over the partial view: up to k distinct
// ids drawn uniformly from the view.
func (s *State) Sample(k int) []wire.NodeID { return s.SampleInto(nil, k) }

// SampleInto is Sample drawing into dst's backing, for a caller that keeps
// one sample at a time (a member.View refreshing its partners every round):
// the same draws, and no allocation once dst has room for k ids. An empty
// sample is nil, as Sample's always was, so a View draws again next round.
func (s *State) SampleInto(dst []wire.NodeID, k int) []wire.NodeID {
	k = s.front(k)
	if k == 0 {
		return nil
	}
	return ids(dst, s.view[:k])
}

// Tick implements member.DynamicSampler: one shuffle round. It ages the
// view, removes the oldest descriptor, and emits a shuffle request to that
// node carrying a view sample plus a fresh self-descriptor. Dropping the
// target first is the failure-repair mechanism: if the target is dead the
// descriptor is gone; if alive it will come back fresh via its own
// shuffles.
func (s *State) Tick() (member.Emit, bool) {
	if s.stopped || len(s.view) == 0 {
		return member.Emit{}, false
	}
	oldest := 0
	for i := range s.view {
		if s.view[i].Age < maxAge {
			s.view[i].Age++
		}
		if s.view[i].Age > s.view[oldest].Age {
			oldest = i
		}
	}
	target := s.view[oldest].ID
	s.view[oldest] = s.view[len(s.view)-1]
	s.view = s.view[:len(s.view)-1]

	s.out.Reply = false
	s.out.Entries = s.sampleEntries(s.out.Entries, s.shuffleLen-1)
	s.pending = ids(s.pending, s.out.Entries)
	//lint:pooled sampleEntries gave the scratch room for ShuffleLen entries
	s.out.Entries = append(s.out.Entries, wire.ShuffleEntry{ID: s.self, Age: 0})
	s.shufflesSent++
	return member.Emit{To: target, Msg: &s.out}, true
}

// Handle implements member.DynamicSampler: it merges shuffle traffic,
// answers requests with a sample of the pre-merge view, and sheds the
// sender's descriptor on a LEAVE. Other messages are ignored, so the
// record can sit behind any dispatcher.
//
// Both shuffle directions merge with Cyclon's swap semantics. Answering a
// request, the replaceable slots are the descriptors just sampled into
// the reply — local to this call, so a node that answers requests
// between its own Tick and the matching reply cannot corrupt its
// initiator-side pending set. Receiving a reply, they are the pending
// ids recorded by the Tick that sent the request, consumed exactly once.
//
// A LEAVE removes the sender from the view immediately — no waiting for
// the descriptor to age out — and tombstones the id so stale copies
// arriving in later shuffles cannot resurrect it.
//
// A SHUFFLE may come by value or by pointer, but not as this record's own
// emission, which the reply is built over.
func (s *State) Handle(from wire.NodeID, msg wire.Message) (member.Emit, bool) {
	if s.stopped {
		return member.Emit{}, false
	}
	switch m := msg.(type) {
	case *wire.Shuffle:
		return s.handleShuffle(from, *m)
	case wire.Shuffle:
		return s.handleShuffle(from, m)
	case wire.Leave:
		s.noteLeave(from)
	}
	return member.Emit{}, false
}

// handleShuffle merges one SHUFFLE and answers a request.
func (s *State) handleShuffle(from wire.NodeID, m wire.Shuffle) (member.Emit, bool) {
	if m.Reply {
		s.merge(m.Entries, s.pending)
		s.pending = s.pending[:0]
		return member.Emit{}, false
	}
	s.out.Reply = true
	s.out.Entries = s.sampleEntries(s.out.Entries, s.shuffleLen)
	s.sent = ids(s.sent, s.out.Entries)
	s.shufflesAnswered++
	s.merge(m.Entries, s.sent)
	return member.Emit{To: from, Msg: &s.out}, true
}

// Goodbye announces a graceful departure: one LEAVE per current view
// entry — the partners most likely to hold this node's descriptor — and
// then the record stops, exactly as on a crash. The engine transmits the
// emissions before tearing the node down.
func (s *State) Goodbye() []member.Emit {
	if s.stopped || len(s.view) == 0 {
		s.stopped = true
		return nil
	}
	out := make([]member.Emit, 0, len(s.view))
	for _, e := range s.view {
		out = append(out, member.Emit{To: e.ID, Msg: wire.Leave{}})
	}
	s.stopped = true
	return out
}

// noteLeave sheds a departed node: its descriptor leaves the view now and
// its id joins the tombstone FIFO so merge and insert refuse stale copies.
func (s *State) noteLeave(id wire.NodeID) {
	for i := range s.view {
		if s.view[i].ID == id {
			s.view[i] = s.view[len(s.view)-1]
			s.view = s.view[:len(s.view)-1]
			break
		}
	}
	if s.tombstoned(id) {
		return
	}
	if len(s.tombs) >= tombCap*s.viewSize {
		copy(s.tombs, s.tombs[1:])
		s.tombs = s.tombs[:len(s.tombs)-1]
	}
	//lint:pooled the FIFO is bounded at tombCap × ViewSize, where its backing stops growing
	s.tombs = append(s.tombs, id)
}

// tombstoned reports whether id has announced a graceful departure.
func (s *State) tombstoned(id wire.NodeID) bool {
	for _, t := range s.tombs {
		if t == id {
			return true
		}
	}
	return false
}

var _ member.DynamicSampler = (*State)(nil)

// front moves min(k, len(view)) uniformly drawn view entries to the front
// of the view (a partial Fisher–Yates) and returns how many: the draws
// behind every sample the record takes.
func (s *State) front(k int) int {
	k = max(min(k, len(s.view)), 0)
	for i := 0; i < k; i++ {
		j := i + s.rng.Intn(len(s.view)-i)
		s.view[i], s.view[j] = s.view[j], s.view[i]
	}
	return k
}

// sampleEntries copies up to k random view entries into dst's backing,
// which it first gives room for a whole SHUFFLE.
func (s *State) sampleEntries(dst []wire.ShuffleEntry, k int) []wire.ShuffleEntry {
	k = s.front(k)
	//lint:pooled dst is the record's emission scratch, grown once to ShuffleLen entries
	return append(slices.Grow(dst[:0], s.shuffleLen), s.view[:k]...)
}

// ids copies the entries' ids into dst's backing.
func ids(dst []wire.NodeID, entries []wire.ShuffleEntry) []wire.NodeID {
	dst = slices.Grow(dst[:0], len(entries))
	for _, e := range entries {
		//lint:pooled slices.Grow gave dst room for every entry
		dst = append(dst, e.ID)
	}
	return dst
}

// merge folds incoming shuffle entries into the view with Cyclon's swap
// rule. Per entry, in order: the self-descriptor is skipped; a duplicate
// keeps the younger age in place; otherwise the entry fills an empty
// view slot if one exists, else replaces the next descriptor from sent —
// the ids this node just shipped to its shuffle partner — that is still
// in the view; entries beyond the replaceable slots are dropped. Each
// sent id is consumed at most once (the cursor never rewinds), so one
// merge replaces at most len(sent) descriptors: exactly the ones traded
// away, which is what conserves the global descriptor count.
func (s *State) merge(entries []wire.ShuffleEntry, sent []wire.NodeID) {
	si := 0
next:
	for _, e := range entries {
		if e.ID == s.self || s.tombstoned(e.ID) {
			continue
		}
		for i := range s.view {
			if s.view[i].ID == e.ID {
				if e.Age < s.view[i].Age {
					s.view[i].Age = e.Age
				}
				continue next
			}
		}
		if len(s.view) < s.viewSize {
			//lint:pooled the view was made with capacity ViewSize
			s.view = append(s.view, e)
			continue
		}
		for si < len(sent) {
			id := sent[si]
			si++
			for i := range s.view {
				if s.view[i].ID == id {
					s.view[i] = e
					continue next
				}
			}
		}
		// No free slot and nothing left to swap out: drop the entry.
	}
}

// insert seeds one bootstrap descriptor: duplicates keep the younger
// age; overflow evicts the oldest entry if the newcomer is younger.
// Shuffle traffic merges through merge's swap rule instead. Tombstoned
// ids are refused, like everywhere else.
func (s *State) insert(e wire.ShuffleEntry) {
	if s.tombstoned(e.ID) {
		return
	}
	for i := range s.view {
		if s.view[i].ID == e.ID {
			if e.Age < s.view[i].Age {
				s.view[i].Age = e.Age
			}
			return
		}
	}
	if len(s.view) < s.viewSize {
		s.view = append(s.view, e)
		return
	}
	oldest := 0
	for i := range s.view {
		if s.view[i].Age > s.view[oldest].Age {
			oldest = i
		}
	}
	if s.view[oldest].Age > e.Age {
		s.view[oldest] = e
	}
}
