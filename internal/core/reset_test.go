package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"gossipstream/internal/member"
	"gossipstream/internal/stream"
	"gossipstream/internal/wire"
)

// logEnv is specEnv that logs every datagram a peer sends, on the flat
// route (SendIDs, SendServe) or the plain one (Send), at its instant.
type logEnv struct {
	*specEnv
	peer *Peer
	log  []string
}

func (e *logEnv) Send(to wire.NodeID, msg wire.Message) {
	if s, ok := msg.(wire.Serve); ok {
		ids := make([]stream.PacketID, len(s.Packets))
		for i, pkt := range s.Packets {
			ids[i] = pkt.ID
		}
		e.SendServe(to, ids, 0)
		return
	}
	e.log = append(e.log, fmt.Sprintf("%v →%d %v %v", e.now, to, msg.Kind(), msg))
}
func (e *logEnv) SendIDs(to wire.NodeID, kind wire.Kind, ids []stream.PacketID) {
	e.log = append(e.log, fmt.Sprintf("%v →%d %v %v", e.now, to, kind, ids))
}
func (e *logEnv) SendServe(to wire.NodeID, ids []stream.PacketID, _ int) {
	e.log = append(e.log, fmt.Sprintf("%v →%d SERVE %v", e.now, to, ids))
}
func (e *logEnv) FlatTimers() bool { return true }
func (e *logEnv) AfterTimer(d time.Duration, kind uint8, arg uint32) {
	t := e.arm(d, func() { e.peer.OnTimer(kind, arg) })
	if kind == timerRetransmit {
		t.retGen = arg
	}
}

// plainLogEnv is logEnv behind Env's five methods only, so that a peer
// over it runs on the boxed adapter.
type plainLogEnv struct{ e *logEnv }

func (p plainLogEnv) ID() wire.NodeID                         { return p.e.ID() }
func (p plainLogEnv) Now() time.Duration                      { return p.e.Now() }
func (p plainLogEnv) Send(to wire.NodeID, msg wire.Message)   { p.e.Send(to, msg) }
func (p plainLogEnv) After(d time.Duration, fn func()) func() { return p.e.After(d, fn) }
func (p plainLogEnv) Rand() *rand.Rand                        { return p.e.Rand() }

// playLogged plays ops to p over env — PROPOSEs and REQUESTs from other
// nodes, SERVEs, clock advances, Stops and Starts — and returns what p
// said: every datagram it sent, then its counters, its receiver and the
// next draw of its random stream.
func playLogged(p *Peer, env *logEnv, flat bool, ops []specOp) []string {
	layout := tinyLayout()
	for _, op := range ops {
		switch op.kind {
		case 'P':
			if flat {
				p.HandleIDs(op.from, wire.KindPropose, op.ids)
			} else {
				p.HandleMessage(op.from, wire.Propose{IDs: op.ids})
			}
		case 'S':
			if flat {
				p.HandleIDs(3, wire.KindServe, op.ids)
			} else {
				pkts := make([]*stream.Packet, len(op.ids))
				for j, id := range op.ids {
					pkts[j] = &stream.Packet{ID: id, Payload: make([]byte, layout.PayloadBytes)}
				}
				p.HandleMessage(3, wire.Serve{Packets: pkts})
			}
			// A partner asks for what was just served.
			p.HandleIDs(4, wire.KindRequest, op.ids)
		case 'A':
			env.advance(op.dt)
		case 'X':
			p.Stop()
		case 'G':
			p.Start()
		}
	}
	return append(slices.Clone(env.log), fmt.Sprintf("counters %+v", p.Counters()),
		fmt.Sprintf("receiver %+v", *p.Receiver()), fmt.Sprint("draw ", env.rng.Int63()))
}

// TestResetPeerActsFresh holds Reset to its promise: a peer that has run —
// with batches armed, ids requested, a propose queue, an index grown by
// traffic and a partner list, stopped or not, on its table or on another —
// sends, draws and counts exactly what a new peer does under one script
// once reset, on either route, as an ordinary peer or as the source. And
// a peer reset on the table it ran on takes no block from it and
// allocates nothing.
func TestResetPeerActsFresh(t *testing.T) {
	// dirty leaves a peer with everything a peer can hold: a crowd of
	// batches, proposer lists under the random policy, delivered ids.
	dirty := specScenarios()["crowd"]
	for name, ops := range specScenarios() {
		for _, flat := range []bool{false, true} {
			for _, retry := range []RetryPolicy{RetrySameProposer, RetryRandomProposer} {
				for _, source := range []bool{false, true} {
					for _, other := range []bool{false, true} {
						t.Run(fmt.Sprintf("%s/flat=%v/retry=%d/source=%v/other-table=%v", name, flat, retry, source, other), func(t *testing.T) {
							cfg := testConfig()
							cfg.Retry = retry
							build := func(p *Peer, tab *Table, seed int64) *logEnv {
								env := &logEnv{specEnv: &specEnv{rng: rand.New(rand.NewSource(seed))}, peer: p}
								var penv Env = plainLogEnv{env}
								if flat {
									penv = env
								}
								sampler := member.NewSparseView(9, 64, rand.New(rand.NewSource(seed)))
								var err error
								if source {
									var src *stream.Source // a new stream: a Source publishes each id once
									if src, err = stream.NewSource(tinyLayout(), 1); err != nil {
										t.Fatal(err)
									}
									err = p.ResetSource(tab, penv, cfg, sampler, src)
								} else {
									err = p.Reset(tab, penv, cfg, sampler, tinyLayout())
								}
								if err != nil {
									t.Fatal(err)
								}
								p.Start()
								return env
							}
							fresh := new(Peer)
							want := playLogged(fresh, build(fresh, NewTable(), 7), flat, ops)

							tab := NewTable()
							used := new(Peer)
							playLogged(used, build(used, tab, 3), flat, dirty)
							into := tab
							if other {
								into = NewTable()
							}
							_, _, blocks := tab.InUse()
							env := build(used, into, 7)
							if _, _, after := tab.InUse(); !other && after != blocks {
								t.Fatalf("a reset on its own table took %d blocks, had %d", after, blocks)
							}
							got := playLogged(used, env, flat, ops)
							if !slices.Equal(got, want) {
								for i := range min(len(got), len(want)) {
									if got[i] != want[i] {
										t.Fatalf("line %d: the reset peer says %q, a new one %q", i, got[i], want[i])
									}
								}
								t.Fatalf("the reset peer says %d lines, a new one %d", len(got), len(want))
							}
							if err := checkPeerRet(used, env.specEnv, flat); err != nil {
								t.Fatal(err)
							}
							if err := checkTable(into, used); err != nil {
								t.Fatal(err)
							}
							if other {
								if records, batches, blocks := tab.InUse(); records != 0 || batches != 0 || blocks != 0 {
									t.Fatalf("the table the peer left still lends %d records, %d batches and %d blocks", records, batches, blocks)
								}
							}
						})
					}
				}
			}
		}
	}
}

// TestResetOnItsTableAllocatesNothing: resetting a peer that has run, on
// its own table, for the same layout, allocates nothing.
func TestResetOnItsTableAllocatesNothing(t *testing.T) {
	tab := NewTable()
	p := new(Peer)
	env := &logEnv{specEnv: &specEnv{rng: rand.New(rand.NewSource(1))}, peer: p}
	sampler := member.NewSparseView(9, 64, env.rng)
	reset := func() {
		if err := p.Reset(tab, env, testConfig(), sampler, tinyLayout()); err != nil {
			t.Fatal(err)
		}
	}
	reset()
	p.Start()
	playLogged(p, env, true, specScenarios()["crowd"])
	if allocs := testing.AllocsPerRun(20, reset); allocs != 0 {
		t.Fatalf("a reset on the peer's own table allocates %.1f times, want 0", allocs)
	}
}
