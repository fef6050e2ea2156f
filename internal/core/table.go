package core

import (
	"gossipstream/internal/slab"
	"gossipstream/internal/stream"
	"gossipstream/internal/wire"
)

// Table owns the variable-size protocol state of every peer built on it:
// the per-call scratch, and the blocks behind each peer's known bits,
// batch buffers (retBatch), propose queue, receiver and partner list. A
// simulation builds one per engine shard and every peer of the shard on
// it, so a run allocates per shard as the pools reach their peaks, not per
// node; NewPeer and NewSourcePeer build a peer over a private table of its
// own.
//
// Blocks are the table's, lent to the peers on it: a block goes back to
// its size class when the peer grows it or leaves the table, and the next
// peer to need one of that size takes it (last in, first out, so it is
// warm). Every pool is a slab store: its chunks never move, and a peer
// keeps plain slices of its blocks beside their handles. Every block a
// peer holds is lent by its table's pools, so InUse counts it, on a
// private table too.
//
// A Table is not safe for concurrent use: the peers on it must be driven
// from one goroutine at a time, as an engine shard drives its nodes.
type Table struct {
	// liveIDs and liveBatches count what the peers on the table hold for a
	// retransmission check, each peer's share being its InFlight.
	liveIDs, liveBatches int
	// idScratch collects the ids handlePropose is about to request when it
	// arms no batch (K = 1), handleRequest to serve and a boxed SERVE
	// carries, retTargets where retransmit sends each id it re-requests,
	// and targetScratch the ids retransmit sends to one of several
	// targets. Each is scratch for one call.
	idScratch     []stream.PacketID
	retTargets    []wire.NodeID
	targetScratch []stream.PacketID
	// The block pools: known and receiver bits; propose queues and batch
	// ids; partner and proposer lists; receiver window states; batch
	// headers.
	words   slab.Pool[uint64]
	ids     slab.Pool[stream.PacketID]
	nodes   slab.Pool[wire.NodeID]
	windows slab.Pool[stream.WindowState]
	batches slab.Pool[retBatch]
}

// The chunk sizes of a shared table, as shifts: 32 KB chunks of blocks,
// which a 230-node deployment holds a few dozen of and a 100k-node shard
// allocates one of per few hundred peers. The tail chunk is allocated
// whole, so a run pays up to one chunk past its peak.
const (
	wordShift  = 12 // 8-byte words
	idShift    = 13 // 4-byte ids and node ids
	stateShift = 11 // 16-byte window states
	batchShift = 10 // 32-byte batch headers
)

// privateBlockShift is the chunk size of a private table's pools, whose
// one peer holds one block of each kind: a block of more than one element
// is over a quarter of a 4-element chunk, so it gets a chunk of its own,
// sized exactly, and the peer pays for its blocks what it would pay to
// allocate them — while its pools lend, count and take them back as a
// shared table's do.
const privateBlockShift = 2

// NewTable returns an empty table whose blocks are carved from fixed-size
// chunks, for the peers of one engine shard.
func NewTable() *Table {
	return &Table{
		words:   slab.NewPool[uint64](wordShift),
		ids:     slab.NewPool[stream.PacketID](idShift),
		nodes:   slab.NewPool[wire.NodeID](idShift),
		windows: slab.NewPool[stream.WindowState](stateShift),
		batches: slab.NewPool[retBatch](batchShift),
	}
}

// makePrivateTable returns the table of one peer: block pools of small
// chunks.
func makePrivateTable() Table {
	return Table{
		words:   slab.NewPool[uint64](privateBlockShift),
		ids:     slab.NewPool[stream.PacketID](privateBlockShift),
		nodes:   slab.NewPool[wire.NodeID](privateBlockShift),
		windows: slab.NewPool[stream.WindowState](privateBlockShift),
		batches: slab.NewPool[retBatch](privateBlockShift),
	}
}

// InUse reports what the table has lent out: the ids and batches its
// peers hold for a retransmission check — the sum of their InFlight — and
// blocks, a private table's as a shared one's. A table whose peers have
// all been stopped holds no id and no batch; blocks stay with their peers
// until a peer leaves the table (or grows one).
func (t *Table) InUse() (ids, batches, blocks int) {
	return t.liveIDs, t.liveBatches, t.words.Lent() + t.ids.Lent() + t.nodes.Lent() + t.windows.Lent() + t.batches.Lent()
}
