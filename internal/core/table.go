package core

import (
	"math/bits"
	"slices"

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
// back to its class when the peer grows it or leaves the table. Peers
// name records and batches by slab index, so the slabs may move as they
// grow; blocks never move, so a peer keeps plain slices of them.
//
// A Table is not safe for concurrent use: the peers on it must be driven
// from one goroutine at a time, as an engine shard drives its nodes.
type Table struct {
	// reqs is the request slab, reqFree the first record of its free chain
	// (index plus one, zero when empty). Under RetryRandomProposer record
	// i's proposers are proposers[i*stride:], stride being the
	// MaxProposers of the first such peer on the table (every later one
	// must agree); it is zero while no peer keeps proposer lists.
	reqs      []requestState
	proposers []wire.NodeID
	stride    int
	reqFree   uint32
	// batches is the retransmission slab (see retBatch), batchFree the
	// first slot of its free chain.
	batches   []retBatch
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
	words   blockPool[uint64]
	ids     blockPool[stream.PacketID]
	nodes   blockPool[wire.NodeID]
	windows blockPool[stream.WindowState]
}

// chunkBytes is the size of the chunks a shared table carves its blocks
// from: small enough that a 230-node deployment holds a few dozen, large
// enough that a 100k-node shard allocates a chunk per few hundred peers.
const chunkBytes = 32 << 10

// NewTable returns an empty table whose blocks are carved from fixed-size
// chunks, for the peers of one engine shard.
func NewTable() *Table {
	t := &Table{}
	t.words.chunkLen = chunkBytes / 8
	t.ids.chunkLen = chunkBytes / 4
	t.nodes.chunkLen = chunkBytes / 4
	t.windows.chunkLen = chunkBytes / 16
	return t
}

// InUse reports what the table has lent out: request records, armed
// batches, and blocks. A table whose peers have all been stopped holds no
// record and no batch; blocks stay with their peers until a peer leaves
// the table (or grows one).
func (t *Table) InUse() (records, batches, blocks int) {
	return t.liveReqs, t.liveBatches, t.words.inUse + t.ids.inUse + t.nodes.inUse + t.windows.inUse
}

// setStride fixes the table's proposer stride at the first peer that keeps
// proposer lists, giving the records made before it their lists, and
// reports whether a peer keeping maxProposers of them fits the table.
func (t *Table) setStride(maxProposers int) bool {
	if t.stride == 0 {
		t.stride = maxProposers
		//lint:pooled set once per table, at the first peer that keeps proposer lists
		t.proposers = make([]wire.NodeID, len(t.reqs)*maxProposers)
	}
	return t.stride == maxProposers
}

// growSlab returns s with room for n more elements: s itself while it has
// room, else a copy of twice its capacity (at least minSlab elements). A
// slab grows by doubling rather than by append's factor, which falls to
// 1.25 for large slices: a shard's request slab reaches tens of thousands
// of records, and doubling allocates less than twice its peak on the way
// there.
func growSlab[S ~[]E, E any](s S, n int) S {
	if len(s)+n <= cap(s) {
		return s
	}
	return slices.Grow(s, max(len(s), minSlab, n))
}

// minSlab is the fewest elements a slab grows by.
const minSlab = 64

// newRequest takes a record from the request slab for id and returns its
// index plus one; the caller enters it in its index.
func (t *Table) newRequest(id stream.PacketID) uint32 {
	ri := t.reqFree
	if ri != 0 {
		t.reqFree = t.reqs[ri-1].next
	} else {
		t.reqs = growSlab(t.reqs, 1)
		//lint:pooled the slab and its proposer lists grow to the peak of concurrently pending ids across the table's peers, then recycle through reqFree
		t.reqs = append(t.reqs, requestState{})
		if t.stride > 0 {
			t.proposers = growSlab(t.proposers, t.stride)
			//lint:pooled see above
			t.proposers = append(t.proposers, make([]wire.NodeID, t.stride)...)
		}
		ri = uint32(len(t.reqs))
	}
	t.reqs[ri-1] = requestState{requests: 1, id: id}
	t.liveReqs++
	return ri
}

// freeRequest returns record ri (slab index plus one) to the free chain.
func (t *Table) freeRequest(ri uint32) {
	t.reqs[ri-1] = requestState{next: t.reqFree}
	t.reqFree = ri
	t.liveReqs--
}

// newBatch takes a batch from the slab and returns its index plus one.
func (t *Table) newBatch() uint32 {
	bi := t.batchFree
	if bi != 0 {
		t.batchFree = t.batches[bi-1].head
	} else {
		t.batches = growSlab(t.batches, 1)
		//lint:pooled the slab grows to the peak of concurrently armed batches across the table's peers, then recycles through batchFree
		t.batches = append(t.batches, retBatch{})
		bi = uint32(len(t.batches))
	}
	t.liveBatches++
	return bi
}

// freeBatch returns batch bi (slab index plus one) to the free chain.
func (t *Table) freeBatch(bi uint32) {
	t.batches[bi-1] = retBatch{head: t.batchFree}
	t.batchFree = bi
	t.liveBatches--
}

// blockPool lends out blocks of T. A block is a slice whose capacity is
// its own: appending within it never reaches another block. Blocks are
// carved from chunks of chunkLen elements that are never reallocated, so
// a block stays where it is for as long as it is lent; a request larger
// than a quarter chunk, and every request of a pool whose chunkLen is
// zero (a private table's), is an allocation of its own. A returned block
// waits in a free list by size class — class c holds blocks of capacity
// at least 1<<c — for the next request of a size it covers.
//
// A nil *blockPool allocates every block and reuses none, for an index
// built outside any table.
type blockPool[T any] struct {
	chunk    []T // the unused tail of the newest chunk
	chunkLen int
	free     [][][]T // free[c]: the free blocks of class c
	inUse    int
}

// get lends a zeroed block of length n (nil for n = 0). A free block is
// taken from n's own class when the newest there is large enough — blocks
// of one size, as the peers of one layout return, go back out to requests
// of that size — or else from the next class up, whose blocks all are.
func (p *blockPool[T]) get(n int) []T {
	if n == 0 {
		return nil
	}
	if p == nil {
		//lint:pooled an index outside any table owns its slots
		return make([]T, n)
	}
	p.inUse++
	for c := bits.Len(uint(n)) - 1; c <= bits.Len(uint(n-1)) && c < len(p.free); c++ {
		if fl := p.free[c]; len(fl) > 0 && cap(fl[len(fl)-1]) >= n {
			b := fl[len(fl)-1][:n]
			p.free[c] = fl[:len(fl)-1]
			clear(b)
			return b
		}
	}
	if 4*n > p.chunkLen {
		//lint:pooled a block too large to carve, or a private table's: allocated once, then reused through the free lists
		return make([]T, n)
	}
	if len(p.chunk) < n {
		//lint:pooled a fixed chunk, carved into blocks for as long as the table lives
		p.chunk = make([]T, p.chunkLen)
	}
	b := p.chunk[:n:n]
	p.chunk = p.chunk[n:]
	return b
}

// put takes back a block get lent; nil is ignored.
func (p *blockPool[T]) put(b []T) {
	if p == nil || cap(b) == 0 {
		return
	}
	p.inUse--
	c := bits.Len(uint(cap(b))) - 1
	for len(p.free) <= c {
		//lint:pooled one list per size class in use, made once
		p.free = append(p.free, nil)
	}
	//lint:pooled a class's list grows to the most blocks of that class ever free at once
	p.free[c] = append(p.free[c], b[:cap(b)])
}

// grow returns b with room for at least one more element: b itself while
// it has room, otherwise a block of twice its capacity (at least min)
// holding b's elements, b going back to the pool.
func (p *blockPool[T]) grow(b []T, min int) []T {
	if len(b) < cap(b) {
		return b
	}
	nb := p.get(max(2*cap(b), min))[:len(b)]
	copy(nb, b)
	p.put(b)
	return nb
}
