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
// small enough that a small run does not allocate more than it uses.
//
// Neither type is safe for concurrent use.
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
	mask   int
}

// NewTable returns an empty table of 1<<shift elements per chunk.
func NewTable[T any](shift uint8) Table[T] {
	return Table[T]{shift: shift, mask: 1<<shift - 1}
}

// Len returns the number of elements in the table.
func (t *Table[T]) Len() int { return t.n }

// Shift returns the table's chunk size as a power of two.
func (t *Table[T]) Shift() uint8 { return t.shift }

// Chunks returns the number of chunks the table has allocated.
func (t *Table[T]) Chunks() int { return len(t.chunks) }

// At returns element i, which must be below Len. The pointer stays valid
// while the table grows.
func (t *Table[T]) At(i int) *T {
	return &t.chunks[i>>(t.shift&63)][i&t.mask]
}

// Push appends v and returns its index.
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
func (t *Table[T]) Pop() T {
	t.n--
	p := t.At(t.n)
	v := *p
	var zero T
	*p = zero
	return v
}

// Extend grows the table to n elements, if it is shorter, with zero ones.
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
// A Pool whose shift is zero — the zero Pool, or nil — is unchunked: every
// Get is an allocation of its own with handle zero, and Put drops the
// block. An owner with no population to share blocks across (one peer on a
// table of its own) uses it so as not to pay for a chunk.
type Pool[T any] struct {
	chunks [][]T
	shift  uint8
	// cur is the chunk blocks are being carved from (-1 while there is
	// none), tail the elements carved from it.
	cur, tail int
	free      [][]freeBlock // free[c]: the free blocks of class c
	lent      int
}

// freeBlock is a block on a free list: its handle and its capacity.
type freeBlock struct{ h, n uint32 }

// NewPool returns an empty pool carving chunks of 1<<shift elements; shift
// must be at least 2.
func NewPool[T any](shift uint8) Pool[T] {
	return Pool[T]{shift: shift, cur: -1}
}

// Get lends a zeroed block of length n (handle zero and nil for n = 0) and
// returns its handle. A free block is taken from n's own class when the
// newest there is large enough — blocks of one size, as a population of
// one layout returns, go back out to requests of that size — or else from
// the next class up, whose blocks all are; its capacity may exceed n.
func (p *Pool[T]) Get(n int) (uint32, []T) {
	if n == 0 {
		return 0, nil
	}
	if p == nil || p.shift == 0 {
		//lint:pooled an unchunked pool's block is its owner's alone
		return 0, make([]T, n)
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
		h := uint32(len(p.chunks)) << (p.shift & 63)
		//lint:pooled a block too large to carve: its own chunk, allocated once, then reused through the free lists
		p.chunks = append(p.chunks, make([]T, n))
		return h, p.chunks[len(p.chunks)-1]
	}
	if p.cur < 0 || p.tail+n > chunkLen {
		p.cur, p.tail = len(p.chunks), 0
		//lint:pooled a fixed chunk, carved into blocks for as long as the pool lives
		p.chunks = append(p.chunks, make([]T, chunkLen))
	}
	h := uint32(p.cur<<(p.shift&63) | p.tail)
	b := p.chunks[p.cur][p.tail : p.tail+n : p.tail+n]
	p.tail += n
	return h, b
}

// Block returns the first n elements of block h, which must be lent and
// hold at least n.
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
// for; n = 0 is ignored, as is every block of an unchunked pool.
func (p *Pool[T]) Put(h uint32, n int) {
	if n == 0 || p == nil || p.shift == 0 {
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

// Grow returns block h, b with room for at least one more element: b
// itself while it has room, otherwise a block of twice its capacity (at
// least min) holding b's elements, b going back to the pool.
func (p *Pool[T]) Grow(h uint32, b []T, min int) (uint32, []T) {
	if len(b) < cap(b) {
		return h, b
	}
	nh, nb := p.Get(max(2*cap(b), min))
	nb = nb[:len(b)]
	copy(nb, b)
	p.Put(h, cap(b))
	return nh, nb
}

// Lent returns the number of blocks lent and not put back (zero for an
// unchunked pool).
func (p *Pool[T]) Lent() int { return p.lent }
