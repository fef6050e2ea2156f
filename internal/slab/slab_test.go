package slab

import (
	"encoding/binary"
	"slices"
	"testing"
)

// TestTableGrowthNeverMoves fills a table across many chunks and checks
// that the address of every element taken along the way is still the
// element's, holding its value: growth adds chunks and copies nothing.
func TestTableGrowthNeverMoves(t *testing.T) {
	tab := NewTable[[3]uint64](4) // 16 elements a chunk
	var ptrs []*[3]uint64
	for i := range 1000 {
		if got := tab.Push([3]uint64{uint64(i)}); got != i {
			t.Fatalf("Push returned index %d, want %d", got, i)
		}
		ptrs = append(ptrs, tab.At(i))
	}
	if tab.Len() != 1000 || tab.Chunks() != (1000+15)/16 {
		t.Fatalf("Len %d in %d chunks, want 1000 in %d", tab.Len(), tab.Chunks(), (1000+15)/16)
	}
	for i, p := range ptrs {
		if tab.At(i) != p || p[0] != uint64(i) {
			t.Fatalf("element %d moved or changed: at %p holding %d, was at %p", i, tab.At(i), tab.At(i)[0], p)
		}
	}
	if v := tab.Pop(); v[0] != 999 || tab.Len() != 999 || *ptrs[999] != ([3]uint64{}) {
		t.Fatalf("Pop returned %v, Len %d, and left %v behind", v, tab.Len(), *ptrs[999])
	}
	tab.Extend(1040)
	if tab.Len() != 1040 || *tab.At(999) != ([3]uint64{}) || tab.At(0) != ptrs[0] {
		t.Fatal("Extend did not add zero elements in place")
	}
	tab.Extend(10)
	if tab.Len() != 1040 {
		t.Fatal("Extend shortened the table")
	}
}

// TestPool pins the block pool's contract: blocks come zeroed, carved from
// chunks that never move, each with its own capacity and a handle Block
// resolves to it; a returned block goes back out to a request of its size
// or of its class, cleared; a request too large to carve gets a chunk of
// its own; Grow swaps a full block for one twice its size holding the same
// elements; the pool counts what it has lent; and an unchunked pool
// allocates every block and keeps none.
func TestPool(t *testing.T) {
	p := NewPool[uint64](6) // 64 elements a chunk
	ha, a := p.Get(11)
	hb, b := p.Get(11)
	if len(a) != 11 || cap(a) != 11 || cap(b) != 11 {
		t.Fatalf("carved blocks of len %d and caps %d and %d, want 11", len(a), cap(a), cap(b))
	}
	for i := range a {
		a[i] = ^uint64(0)
	}
	if slices.ContainsFunc(b, func(w uint64) bool { return w != 0 }) {
		t.Fatal("two blocks overlap")
	}
	if &p.Block(ha, 11)[0] != &a[0] || &p.Block(hb, 1)[0] != &b[0] {
		t.Fatal("a handle does not resolve to its block")
	}
	chunk := &a[0]
	p.Put(ha, cap(a))
	if hc, c := p.Get(11); &c[0] != chunk || hc != ha || slices.ContainsFunc(c, func(w uint64) bool { return w != 0 }) {
		t.Fatal("a returned block of 11 did not go back out, cleared, to the next request of 11")
	} else {
		p.Put(hc, cap(c))
	}
	if hc, c := p.Get(9); &c[0] != chunk || len(c) != 9 || cap(c) != 11 {
		t.Fatalf("a request of 9 did not take the free block of 11 from its class: len %d cap %d", len(c), cap(c))
	} else {
		p.Put(hc, cap(c))
	}
	if _, c := p.Get(12); &c[0] == chunk {
		t.Fatal("a request of 12 took a block of 11")
	}
	hbig, big := p.Get(17) // more than a quarter chunk: a chunk of its own
	if cap(big) != 17 || &p.Block(hbig, 17)[16] != &big[16] {
		t.Fatalf("a large block has capacity %d, or its handle does not resolve", cap(big))
	}
	hg, grown := p.Grow(hb, b[:11], 0)
	if len(grown) != 11 || cap(grown) < 22 {
		t.Fatalf("Grow gave len %d cap %d, want 11 and at least 22", len(grown), cap(grown))
	}
	if hagain, again := p.Grow(hg, grown, 0); &again[0] != &grown[0] || hagain != hg {
		t.Fatal("Grow swapped a block that had room")
	}
	if p.Lent() != 3 { // the 12, big and grown; Grow took b back
		t.Fatalf("%d blocks lent, want 3", p.Lent())
	}
	if h, s := p.Get(0); s != nil || h != 0 || p.Lent() != 3 {
		t.Fatal("an empty request lent a block")
	}
	for _, unchunked := range []*Pool[uint64]{nil, {}} {
		if _, s := unchunked.Get(8); len(s) != 8 {
			t.Fatal("an unchunked pool did not allocate")
		}
		unchunked.Put(0, 8)
		if unchunked != nil && unchunked.Lent() != 0 {
			t.Fatal("an unchunked pool counts its blocks")
		}
	}
}

// lent is a block the fuzz has out of a pool: its handle, the slice Get
// gave, and the contents the fuzz wrote into it.
type lent struct {
	h    uint32
	b    []uint32
	want []uint32
}

// FuzzStore drives a table and a pool against references: the table
// against a plain slice and the addresses of its elements taken as it
// grew, the pool against a map of the blocks it has lent, each holding
// contents the fuzz wrote. After every step every element and every lent
// block must hold what the reference says, at the address it had when it
// was made; lent blocks must not overlap; and the pool must count them.
func FuzzStore(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 40, 1, 200, 2, 0, 1, 7, 3, 0, 1, 255, 0, 0, 0, 0})
	f.Add(binary.LittleEndian.AppendUint64(nil, 0x0102030405060708))
	f.Fuzz(func(t *testing.T, ops []byte) {
		tab := NewTable[uint32](3)
		var ref []uint32
		var addr []*uint32
		pool := NewPool[uint32](6)
		blocks := map[int]*lent{} // by the order they were lent in
		next := 0
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], int(ops[i+1])
			switch op % 6 {
			case 0: // push
				v := uint32(i)<<8 | uint32(arg)
				tab.Push(v)
				ref = append(ref, v)
				addr = append(addr, tab.At(len(ref)-1))
			case 1: // pop
				if len(ref) > 0 {
					if got, want := tab.Pop(), ref[len(ref)-1]; got != want {
						t.Fatalf("Pop = %d, want %d", got, want)
					}
					ref, addr = ref[:len(ref)-1], addr[:len(addr)-1]
				}
			case 2: // extend
				n := len(ref) + arg%20
				tab.Extend(n)
				for len(ref) < n {
					ref = append(ref, 0)
					addr = append(addr, tab.At(len(ref)-1))
				}
			case 3: // get a block and fill it
				n := 1 + arg%40
				h, b := pool.Get(n)
				if len(b) != n || cap(b) < n {
					t.Fatalf("Get(%d) gave len %d cap %d", n, len(b), cap(b))
				}
				for j := range b {
					if b[j] != 0 {
						t.Fatalf("Get(%d) gave a block holding %d at %d", n, b[j], j)
					}
					b[j] = uint32(next)<<8 | uint32(j)
				}
				blocks[next] = &lent{h: h, b: b, want: slices.Clone(b)}
				next++
			case 4: // put a block back
				if k := pickBlock(blocks, arg); k >= 0 {
					pool.Put(blocks[k].h, cap(blocks[k].b))
					delete(blocks, k)
				}
			case 5: // grow a block by one element
				if k := pickBlock(blocks, arg); k >= 0 {
					l := blocks[k]
					l.h, l.b = pool.Grow(l.h, l.b, 2)
					l.b = append(l.b, 1<<31|uint32(k))
					l.want = append(l.want, 1<<31|uint32(k))
				}
			}
			if tab.Len() != len(ref) {
				t.Fatalf("step %d: Len %d, reference %d", i/2, tab.Len(), len(ref))
			}
			for j, v := range ref {
				if p := tab.At(j); p != addr[j] || *p != v {
					t.Fatalf("step %d: element %d at %p holds %d, reference %d at %p", i/2, j, p, *p, v, addr[j])
				}
			}
			if pool.Lent() != len(blocks) {
				t.Fatalf("step %d: pool counts %d blocks lent, %d are", i/2, pool.Lent(), len(blocks))
			}
			owner := map[*uint32]int{}
			for k, l := range blocks {
				if got := pool.Block(l.h, len(l.b)); len(l.b) > 0 && &got[0] != &l.b[0] {
					t.Fatalf("step %d: block %d's handle resolves elsewhere", i/2, k)
				}
				if !slices.Equal(l.b, l.want) {
					t.Fatalf("step %d: block %d holds %v, wrote %v", i/2, k, l.b, l.want)
				}
				for j := range l.b {
					if o, ok := owner[&l.b[j]]; ok {
						t.Fatalf("step %d: blocks %d and %d overlap", i/2, o, k)
					}
					owner[&l.b[j]] = k
				}
			}
		}
	})
}

// pickBlock returns the arg-th lent block in lending order, modulo their
// number, or -1 when none is lent.
func pickBlock(blocks map[int]*lent, arg int) int {
	if len(blocks) == 0 {
		return -1
	}
	keys := make([]int, 0, len(blocks))
	for k := range blocks {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys[arg%len(keys)]
}
