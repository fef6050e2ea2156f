// Package slab is the simulator's one store for state that grows with a
// run: a chunked table and a size-class block pool. Both hold their
// elements in fixed-size chunks that are never moved or copied, so growth
// allocates each byte of a run's footprint once — a slice grown by append
// allocates it again at every step, about four times in all at append's
// late factor of 1.25 — and a pointer to an element, or a slice of a
// block, stays valid for as long as the store lives.
//
// A chunk size is a power of two fixed by the owner, a constant per use:
// large enough that a big run allocates a chunk per many growth events,
// small enough that a small run does not allocate more than it uses. A
// pool has one mode: every block it lends is carved from its chunks and
// counted until it comes back, whether the pool serves an engine shard or
// a single peer.
//
// Neither type is safe for concurrent use.
//
//lint:deterministic the engine's and the handlers' stores run inside every simulated run
package slab

import "math/bits"

// Table is a growable array of T held in chunks of 1<<shift elements.
// Push and Extend add chunks as the length passes them; nothing already in
// the table moves. The zero Table is not ready for use: NewTable sets its
// chunk size.
type Table[T any] struct {
	chunks [][]T
	n      int
	shift  uint8
	mask   int32 // int32, with shift, fits the padding of one word
}

// NewTable returns an empty table of 1<<shift elements per chunk.
func NewTable[T any](shift uint8) Table[T] {
	return Table[T]{shift: shift, mask: 1<<shift - 1}
}

// Len returns the number of elements in the table.
func (t *Table[T]) Len() int { return t.n }

// Chunks returns the number of chunks the table has allocated.
func (t *Table[T]) Chunks() int { return len(t.chunks) }

// At returns element i, which must be below Len. The pointer stays valid
// while the table grows.
//
//lint:hot the engine reads the message slab per event
func (t *Table[T]) At(i int) *T {
	return &t.chunks[i>>(t.shift&63)][i&int(t.mask)]
}

// Push appends v and returns its index.
//
//lint:hot the engine and the handlers fill the slabs per event; only a chunk may be allocated
func (t *Table[T]) Push(v T) int {
	i := t.n
	if i>>(t.shift&63) == len(t.chunks) {
		t.addChunk()
	}
	t.n++
	*t.At(i) = v
	return i
}

// Pop removes the last element, which it returns; the table must not be
// empty. The vacated element is zeroed, so Extend hands it out zero.
//
//lint:hot the engine and the handlers free slab entries per event
func (t *Table[T]) Pop() T {
	t.n--
	p := t.At(t.n)
	v := *p
	var zero T
	*p = zero
	return v
}

// Extend grows the table to n elements, if it is shorter, with zero ones.
//
//lint:hot the handlers grow the slabs per event; only a chunk may be allocated
func (t *Table[T]) Extend(n int) {
	for len(t.chunks)<<(t.shift&63) < n {
		t.addChunk()
	}
	t.n = max(t.n, n)
}

// addChunk allocates one more chunk.
func (t *Table[T]) addChunk() {
	//lint:pooled a fixed chunk, allocated once as the table passes its end and never moved
	t.chunks = append(t.chunks, make([]T, 1<<(t.shift&63)))
}

// Pool lends blocks of T: a block is a slice whose capacity is its own, so
// appending within it never reaches another. Each block has a uint32
// handle that Block resolves, so an owner that keeps a block's place in a
// pointer-free record can store the handle instead of the slice.
//
// Blocks are carved from chunks of 1<<shift elements that never move; a
// block larger than a quarter chunk gets a chunk of its own. A returned
// block waits on a free list of its size class — class c holds the blocks
// of capacity in [1<<c, 2<<c) — for the next request of a size it covers;
// each list is last in, first out, so a block goes back out warm.
//
// Every block a Pool lends is counted (Lent) until it comes back. An owner
// with little to lend — one peer on a table of its own — picks a small
// chunk, so that its blocks are chunks of their own, each exactly sized.
// The zero Pool is not ready for use: NewPool sets its chunk size. A Pool
// must not be copied once it has lent a block, as its chunk list may point
// into it.
type Pool[T any] struct {
	// chunks lists the chunks by the chunk field of a handle. Until it
	// outgrows them it is backed by few, so a pool of a few chunks — a
	// private table's — allocates nothing but its chunks.
	chunks [][]T
	free   [][]freeBlock // free[c]: the free blocks of class c
	// cur is the chunk blocks are being carved from (-1 while there is
	// none), tail the elements carved from it. The counters are int32, as
	// handles are 32 bits, to keep the pools of a private table small.
	cur, tail int32
	lent      int32
	shift     uint8
	// few comes last, so that what Get and Put read shares a cache line.
	few [3][]T
}

// freeBlock is a block on a free list: its handle and its capacity.
type freeBlock struct{ h, n uint32 }

// NewPool returns an empty pool carving chunks of 1<<shift elements; shift
// must be at least 2, so that a quarter chunk holds an element.
func NewPool[T any](shift uint8) Pool[T] {
	return Pool[T]{shift: shift, cur: -1}
}

// Get lends a zeroed block of length n (handle zero and nil for n = 0) and
// returns its handle. A free block is taken from n's own class when the
// newest there is large enough — blocks of one size, as a population of
// one layout returns, go back out to requests of that size — or else from
// the next class up, whose blocks all are; its capacity may exceed n.
//
//lint:hot the spill pool hands out a block per spilled message
func (p *Pool[T]) Get(n int) (uint32, []T) {
	if n == 0 {
		return 0, nil
	}
	p.lent++
	for c := bits.Len(uint(n)) - 1; c <= bits.Len(uint(n-1)) && c < len(p.free); c++ {
		if fl := p.free[c]; len(fl) > 0 && int(fl[len(fl)-1].n) >= n {
			f := fl[len(fl)-1]
			p.free[c] = fl[:len(fl)-1]
			b := p.slice(f.h, int(f.n))[:n]
			clear(b)
			return f.h, b
		}
	}
	chunkLen := 1 << (p.shift & 63)
	if 4*n > chunkLen {
		//lint:pooled a block too large to carve: its own chunk, allocated once, then reused through the free lists
		c := p.addChunk(make([]T, n))
		return uint32(c) << (p.shift & 63), p.chunks[c]
	}
	if p.cur < 0 || int(p.tail)+n > chunkLen {
		//lint:pooled a fixed chunk, carved into blocks for as long as the pool lives
		p.cur, p.tail = int32(p.addChunk(make([]T, chunkLen))), 0
	}
	h := uint32(int(p.cur)<<(p.shift&63) | int(p.tail))
	b := p.chunks[p.cur][p.tail : int(p.tail)+n : int(p.tail)+n]
	p.tail += int32(n)
	return h, b
}

// addChunk appends chunk c to the list and returns its index.
func (p *Pool[T]) addChunk(c []T) int {
	if p.chunks == nil {
		p.chunks = p.few[:0]
	}
	//lint:pooled the chunk list grows by one entry per chunk, past few
	p.chunks = append(p.chunks, c)
	return len(p.chunks) - 1
}

// Block returns the first n elements of block h, which must be lent and
// hold at least n.
//
//lint:hot the spill pool's reads run per spilled message
func (p *Pool[T]) Block(h uint32, n int) []T {
	return p.slice(h, n)
}

// slice returns n elements of block h, capacity n.
func (p *Pool[T]) slice(h uint32, n int) []T {
	c, off := h>>(p.shift&63), int(h&(1<<(p.shift&63)-1))
	return p.chunks[c][off : off+n : off+n]
}

// Put takes back block h, which Get lent, with n its capacity — the
// capacity of the slice Get returned, which may exceed the length asked
// for; n = 0 is ignored.
//
//lint:hot the spill pool takes back a block per spilled message
func (p *Pool[T]) Put(h uint32, n int) {
	if n == 0 {
		return
	}
	p.lent--
	c := bits.Len(uint(n)) - 1
	for len(p.free) <= c {
		//lint:pooled one list per size class in use, made once
		p.free = append(p.free, nil)
	}
	//lint:pooled a class's list grows to the most blocks of that class ever free at once
	p.free[c] = append(p.free[c], freeBlock{h: h, n: uint32(n)})
}

// Grow returns block h, b with room for at least n more elements: b
// itself while it has room, otherwise a block of b's capacity (at least
// min) doubled until it has, holding b's elements, b going back to the
// pool.
//
//lint:hot the spill pool grows a block per spilled message; only a chunk may be allocated
func (p *Pool[T]) Grow(h uint32, b []T, n, min int) (uint32, []T) {
	if len(b)+n <= cap(b) {
		return h, b
	}
	c := max(cap(b), min, 1)
	for c < len(b)+n {
		c *= 2
	}
	nh, nb := p.Get(c)
	nb = nb[:len(b)]
	copy(nb, b)
	p.Put(h, cap(b))
	return nh, nb
}

// Lent returns the number of blocks lent and not put back.
func (p *Pool[T]) Lent() int { return int(p.lent) }
