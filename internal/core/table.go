package core

import (
	"math/bits"

	"gossipstream/internal/slab"
	"gossipstream/internal/stream"
	"gossipstream/internal/wire"
)

// Table owns the variable-size protocol state of every peer built on it:
// the request slab with its proposer lists, the batch slab, the per-call
// scratch, and the blocks behind each peer's known bits, request index,
// propose queue, receiver and partner list. A simulation builds one per
// engine shard and every peer of the shard on it, so a run allocates per
// shard as the slabs and chunks reach their peaks, not per node; NewPeer
// and NewSourcePeer build a peer over a private table of its own.
//
// Records, batches and blocks are the table's, lent to the peers on it:
// a record or batch a peer frees goes back on a free chain the next peer
// to need one takes (last in, first out, so it is warm), and a block goes
// back to its class when the peer grows it or leaves the table. Every
// slab and pool is a slab store: its chunks never move, so the slabs grow
// without copying, and a peer keeps plain slices of its blocks beside
// their handles. Every block a peer holds is lent by its table's pools,
// so InUse counts it, on a private table too.
//
// A Table is not safe for concurrent use: the peers on it must be driven
// from one goroutine at a time, as an engine shard drives its nodes.
type Table struct {
	// reqs is the request slab, reqFree the first record of its free chain
	// (index plus one, zero when empty). Under RetryRandomProposer record
	// i's proposers are proposers[i<<strideShift:][:stride], stride being
	// the MaxProposers of the first such peer on the table (every later one
	// must agree) and 1<<strideShift the power of two at or above it, so a
	// record's list never crosses a chunk; stride is zero while no peer
	// keeps proposer lists.
	reqs        slab.Table[requestState]
	proposers   slab.Table[wire.NodeID]
	stride      int
	strideShift uint8
	reqFree     uint32
	// batches is the retransmission slab (see retBatch), batchFree the
	// first slot of its free chain.
	batches   slab.Table[retBatch]
	batchFree uint32
	// liveReqs and liveBatches count the records and batches lent out.
	liveReqs, liveBatches int
	// idScratch collects the ids handlePropose and retransmit are about to
	// request, handleRequest to serve and a boxed SERVE carries, retTargets
	// where retransmit sends each, and targetScratch the ids retransmit
	// sends to one of several targets. Each is scratch for one call.
	idScratch     []stream.PacketID
	retTargets    []wire.NodeID
	targetScratch []stream.PacketID
	// The block pools: known bits, receiver bits and request indexes;
	// propose queues; partner lists; receiver window states.
	words   slab.Pool[uint64]
	ids     slab.Pool[stream.PacketID]
	nodes   slab.Pool[wire.NodeID]
	windows slab.Pool[stream.WindowState]
}

// The chunk sizes of a shared table, as shifts: about 48 KB of request
// records and 80 KB of batches, so that a 2,000-node shard at its peak of
// ≈100k records holds about fifty chunks of records and a 500-node shard,
// peaking near 8k records, a handful; and 32 KB chunks of blocks, which a
// 230-node deployment holds a few dozen of and a 100k-node shard
// allocates one of per few hundred peers. The tail chunk is allocated
// whole, so a run pays up to one chunk past its peak: with 192 KB chunks
// a 500-node shard peaking a few records past 8,192 paid 190 KB for them.
const (
	reqShift   = 11
	batchShift = 11
	wordShift  = 12 // 8-byte words
	idShift    = 13 // 4-byte ids and node ids
	stateShift = 11 // 16-byte window states
)

// The chunks of a private table, whose one peer holds a few rounds' worth
// of records and one block of each kind: a block of more than one element
// is over a quarter of a 4-element chunk, so it gets a chunk of its own,
// sized exactly, and the peer pays for its blocks what it would pay to
// allocate them — while its pools lend, count and take them back as a
// shared table's do.
const (
	privateReqShift   = 6
	privateBatchShift = 4
	privateBlockShift = 2
)

// NewTable returns an empty table whose slabs and blocks are carved from
// fixed-size chunks, for the peers of one engine shard.
func NewTable() *Table {
	return &Table{
		reqs:    slab.NewTable[requestState](reqShift),
		batches: slab.NewTable[retBatch](batchShift),
		words:   slab.NewPool[uint64](wordShift),
		ids:     slab.NewPool[stream.PacketID](idShift),
		nodes:   slab.NewPool[wire.NodeID](idShift),
		windows: slab.NewPool[stream.WindowState](stateShift),
	}
}

// makePrivateTable returns the table of one peer: small slab chunks, and
// block pools of small chunks.
func makePrivateTable() Table {
	return Table{
		reqs:    slab.NewTable[requestState](privateReqShift),
		batches: slab.NewTable[retBatch](privateBatchShift),
		words:   slab.NewPool[uint64](privateBlockShift),
		ids:     slab.NewPool[stream.PacketID](privateBlockShift),
		nodes:   slab.NewPool[wire.NodeID](privateBlockShift),
		windows: slab.NewPool[stream.WindowState](privateBlockShift),
	}
}

// InUse reports what the table has lent out: request records, armed
// batches, and blocks, a private table's as a shared one's. A table whose
// peers have all been stopped holds no record and no batch; blocks stay
// with their peers until a peer leaves the table (or grows one).
func (t *Table) InUse() (records, batches, blocks int) {
	return t.liveReqs, t.liveBatches, t.words.Lent() + t.ids.Lent() + t.nodes.Lent() + t.windows.Lent()
}

// setStride fixes the table's proposer stride at the first peer that keeps
// proposer lists, giving the records made before it their lists, and
// reports whether a peer keeping maxProposers of them fits the table.
func (t *Table) setStride(maxProposers int) bool {
	if t.stride == 0 {
		t.stride = maxProposers
		t.strideShift = uint8(bits.Len(uint(maxProposers - 1)))
		t.proposers = slab.NewTable[wire.NodeID](t.reqs.Shift() + t.strideShift)
		t.proposers.Extend(t.reqs.Len() << t.strideShift)
	}
	return t.stride == maxProposers
}

// req returns request record ri (slab index plus one).
func (t *Table) req(ri uint32) *requestState { return t.reqs.At(int(ri - 1)) }

// batch returns batch bi (slab index plus one).
func (t *Table) batch(bi uint32) *retBatch { return t.batches.At(int(bi - 1)) }

// proposer returns the k-th proposer slot of record ri (slab index plus
// one).
func (t *Table) proposer(ri uint32, k int) *wire.NodeID {
	return t.proposers.At(int(ri-1)<<(t.strideShift&63) + k)
}

// newRequest takes a record from the request slab for id and returns its
// index plus one; the caller enters it in its index.
func (t *Table) newRequest(id stream.PacketID) uint32 {
	ri := t.reqFree
	if ri != 0 {
		t.reqFree = t.req(ri).next
	} else {
		// The slab and its proposer lists grow to the peak of concurrently
		// pending ids across the table's peers, then recycle through reqFree.
		ri = uint32(t.reqs.Push(requestState{}) + 1)
		if t.stride > 0 {
			t.proposers.Extend(int(ri) << t.strideShift)
		}
	}
	*t.req(ri) = requestState{requests: 1, id: id}
	t.liveReqs++
	return ri
}

// freeRequest returns record ri (slab index plus one) to the free chain.
func (t *Table) freeRequest(ri uint32) {
	*t.req(ri) = requestState{next: t.reqFree}
	t.reqFree = ri
	t.liveReqs--
}

// newBatch takes a batch from the slab and returns its index plus one.
func (t *Table) newBatch() uint32 {
	bi := t.batchFree
	if bi != 0 {
		t.batchFree = t.batch(bi).head
	} else {
		// The slab grows to the peak of concurrently armed batches across
		// the table's peers, then recycles through batchFree.
		bi = uint32(t.batches.Push(retBatch{}) + 1)
	}
	t.liveBatches++
	return bi
}

// freeBatch returns batch bi (slab index plus one) to the free chain.
func (t *Table) freeBatch(bi uint32) {
	*t.batch(bi) = retBatch{head: t.batchFree}
	t.batchFree = bi
	t.liveBatches--
}
