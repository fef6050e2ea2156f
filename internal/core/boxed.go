package core

import (
	"slices"
	"time"

	"gossipstream/internal/stream"
	"gossipstream/internal/wire"
)

// boxedEnv carries a peer's flat route over a plain Env — the real-time
// driver, or any wrapper that defines only Env's five methods: a timer
// becomes a closure armed with After, a message a boxed wire.Message sent
// with Send, and deliveries come back boxed through HandleMessage. A peer
// builds one at its first Start on such an Env and keeps it, with the
// packets it holds, across restarts.
type boxedEnv struct {
	Env
	p *Peer
	// table holds, dense over the stream's ids, the packets an ordinary
	// peer has been delivered; the source serves from its stream.Source
	// and has none.
	table []*stream.Packet
	// tick is the gossip tick's closure for the Start epoch tickEpoch.
	tick      func()
	tickEpoch uint32
	// propose is the last PROPOSE boxed: a round sends each chunk to every
	// partner in turn, and they all share one box.
	propose wire.Message
	// pkts and serves are SendServe's scratch, cleared after use so they
	// pin no packet.
	pkts   []*stream.Packet
	serves []wire.Serve
}

func newBoxedEnv(p *Peer) *boxedEnv {
	b := &boxedEnv{Env: p.env, p: p}
	if p.source == nil {
		b.table = make([]*stream.Packet, p.layoutTotal)
	}
	return b
}

func (b *boxedEnv) FlatTimers() bool { return true }

// AfterTimer arms OnTimer(kind, arg) through After and drops the cancel:
// the peer ignores the timers it no longer wants.
//
//lint:hot arms every timer of a peer over a plain Env
func (b *boxedEnv) AfterTimer(d time.Duration, kind uint8, arg uint32) {
	fn := b.tick
	if kind != timerTick || arg != b.tickEpoch {
		p := b.p
		//lint:coldpath only a plain Env (rt, wrapped Envs) gets here, to build the closure its After demands; on the simulation engine timers are flat
		fn = func() { p.OnTimer(kind, arg) }
		if kind == timerTick {
			b.tick, b.tickEpoch = fn, arg
		}
	}
	b.Env.After(d, fn)
}

// SendIDs boxes a PROPOSE or REQUEST over a copy of ids, which the message
// in flight owns.
//
//lint:hot boxes every PROPOSE and REQUEST of a peer over a plain Env
func (b *boxedEnv) SendIDs(to wire.NodeID, kind wire.Kind, ids []stream.PacketID) {
	if kind != wire.KindPropose {
		//lint:boxed over a plain Env the boxed REQUEST is the in-flight message record
		b.Env.Send(to, wire.Request{IDs: slices.Clone(ids)})
		return
	}
	if last, _ := b.propose.(wire.Propose); !slices.Equal(ids, last.IDs) {
		// One box per chunk, shared by every partner it goes to.
		b.propose = wire.Propose{IDs: slices.Clone(ids)}
	}
	b.Env.Send(to, b.propose)
}

// SendServe sends the packets ids names as SERVEs backed by wire's pool.
// The Env owns a backing from then on: it recycles it once the message is
// consumed, or leaves it to the collector. An id the peer holds no packet
// for (it came as an id, not in a boxed SERVE) is skipped.
//
//lint:hot boxes every SERVE of a peer over a plain Env
func (b *boxedEnv) SendServe(to wire.NodeID, ids []stream.PacketID, _ int) {
	pkts := b.pkts[:0]
	for _, id := range ids {
		var pkt *stream.Packet
		if b.table != nil {
			pkt = b.table[id]
		} else {
			pkt = b.p.source.Packet(id)
		}
		if pkt != nil {
			//lint:pooled pkts is per-peer scratch, reused by every SERVE
			pkts = append(pkts, pkt)
		}
	}
	b.serves = wire.SplitServeInto(b.serves[:0], pkts)
	for _, s := range b.serves {
		//lint:boxed over a plain Env the boxed SERVE is the in-flight message record
		b.Env.Send(to, s)
	}
	clear(pkts)
	clear(b.serves)
	b.pkts, b.serves = pkts[:0], b.serves[:0]
}

// keep stores the packets of a boxed SERVE that the peer has not been
// delivered yet, before it delivers them. A nil adapter — the peer runs on
// its Env's own flat route — stores nothing.
func (b *boxedEnv) keep(pkts []*stream.Packet) {
	if b == nil {
		return
	}
	for _, pkt := range pkts {
		if int(pkt.ID) < len(b.table) && !b.p.recv.Has(pkt.ID) {
			b.table[pkt.ID] = pkt
		}
	}
}
