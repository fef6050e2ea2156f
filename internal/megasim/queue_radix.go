package megasim

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"time"
)

// radixQueue is each shard's event queue: a monotone radix heap (Ahuja,
// Mehlhorn, Orlin & Tarjan, JACM 1990). It pops by time, same-instant
// events by origin (from), and events of one instant and one origin in
// the order they were pushed: the engine's tie rule, which makes what a
// node sees independent of which other nodes share its shard. It relies
// on the one property a simulation clock gives for free: no event is ever
// scheduled before the event being executed, so every push lands at or
// after last, the timestamp of the latest pop. A push that breaks this
// panics; a peekAt moves no such bound, so work staged at a barrier may
// still land below a peeked minimum.
//
// A queue is owned by one shard goroutine; like all shard state it is
// touched by the supervisor only at quiescent points (peekAt in the
// next-event scan between windows, len and peak from accessors).
//
// Events are kept in buckets by 4-bit digit, the K-ary form of the radix
// heap with K = 16. Bucket 0 holds the events at last itself. Any other
// event's at first differs from last in the 4-bit digit at position
// p = (bits.Len64(at ^ last) - 1) / 4, where at's digit d is the larger,
// and it goes to bucket p<<4 | d: 16 positions of 16 digit values, 256
// buckets (those with d = 0 stay unused). For timestamps at or after last
// the bucket index never falls as at rises — a later at differs from last
// at the same position or a higher one, and at the same position its digit
// is no smaller — so every event of a bucket precedes every event of the
// buckets above it, and the lowest non-empty bucket holds the minimum. A
// 256-bit occupancy mask finds that bucket with a TrailingZeros64 on the
// first non-zero of its four words.
//
// Bucket 0 is served in origin order. When it runs dry, pop makes the lowest
// non-empty bucket's minimum the new last and redistributes that bucket:
// its events share every digit from position p up with the new last, so
// each moves to a bucket of a strictly lower position, and those at the
// new last land in bucket 0. An event therefore moves at most once per
// digit of its lead over its life (4.7 times on average in a 2,000-node
// steady run, against 8.7 with a bucket per bit), each move a sequential
// copy, with no comparison against any other event — where a heap sifts
// through log n random cache lines on every pop.
//
// Events at one instant always share a bucket, and every move keeps their
// order, so bucket 0 holds its events in push order; while their origins
// rise with it, bucket 0 fills already sorted. Any other order marks
// bucket 0 unsorted, and the next pop sorts what is pending there once,
// stably, so that one origin's events keep their push order: O(k log² k)
// moves for a burst of k, never a shift per push.
//
// peekAt never moves last: barrier work (admissions, cross-shard merges)
// may push below a peeked minimum. Each bucket keeps its own minimum
// instead, updated by every push and move into it, so peekAt reads the
// lowest bucket's minimum in O(1) and pop makes it the new last without a
// scan.
//
// Buckets 1..255 are chains of fixed 32-event chunks drawn from one free
// list; a redistribution frees each source chunk once it has been read,
// so no more chunks are in use than the pending events fill plus one
// partial chunk per bucket (a slice per bucket would keep each bucket's
// peak capacity alive). Chunks live in pointer-free 64-chunk pages that
// are never moved or freed: the store grows a page at a time, copying
// nothing and leaving no garbage, where one growing slice would copy the
// whole pending set at every step; only the chunks' 4-byte links grow by
// append. Bucket 0 is one slice, popped from its head and sortable in
// place.
type radixQueue struct {
	last time.Duration // at of the latest pop; no push may precede it
	// zero is bucket 0: the pending events at last, in origin order from
	// zhead.
	zero     []event
	zhead    int
	unsorted bool // bucket 0 took an event out of origin order since pop last sorted it

	mask    [radixBuckets / 64]uint64 // bit i%64 of word i/64 set: bucket i holds events (bit 0 unused)
	buckets [radixBuckets]radixBucket

	pages  []*radixPage
	next   []int32 // next[c]: the chunk after c in its bucket or on the free list
	chunks int32   // chunks handed out: the free list's and the buckets'
	free   int32   // head of the free chunk list, -1 when empty

	n         int // pending events
	highWater int
}

// radixBuckets is the bucket count: 16 digit positions of a 64-bit time
// by 16 digit values.
const radixBuckets = 256

// radixBucketOf returns the bucket an event at at goes to while last is
// last, at > last: the position of the highest 4-bit digit in which they
// differ, and at's digit there.
func radixBucketOf(at, last time.Duration) uint8 {
	p := uint(bits.Len64(uint64(at^last))-1) >> 2
	return uint8(p<<4 | uint(at)>>(p<<2)&15)
}

// radixChunkLen is the chunk size in events: 32 records of 32 bytes, a
// kilobyte of sequential copy per chunk moved.
const radixChunkLen = 32

type radixChunk [radixChunkLen]event

// radixPage holds chunks radixPageChunks·p up to radixPageChunks·(p+1)-1.
type radixPage [radixPageChunks]radixChunk

const (
	radixPageShift  = 6
	radixPageChunks = 1 << radixPageShift // 64 KB of events a page
)

func (q *radixQueue) chunk(c int32) *radixChunk {
	return &q.pages[c>>radixPageShift][c&(radixPageChunks-1)]
}

// radixBucket is one bucket's chunk chain. Every chunk but the tail is
// full. An empty bucket has fill radixChunkLen, so the first event added
// draws a fresh chunk, and min infTime.
type radixBucket struct {
	head, tail int32
	fill       int32         // events in the tail chunk
	min        time.Duration // earliest at in the bucket
	tailChunk  *radixChunk   // the chunk tail names: adds skip the page lookup
}

var emptyRadixBucket = radixBucket{head: -1, tail: -1, fill: radixChunkLen, min: infTime}

func newRadixQueue() *radixQueue {
	q := &radixQueue{free: -1}
	for i := range q.buckets {
		q.buckets[i] = emptyRadixBucket
	}
	return q
}

// push inserts ev. A push before the last pop breaks the clock's
// monotonicity, which every bucket index relies on, and panics.
func (q *radixQueue) push(ev event) {
	if ev.at < q.last {
		panic(fmt.Sprintf("megasim: radix queue push at %v precedes the last pop at %v", ev.at, q.last))
	}
	q.n++
	if q.n > q.highWater {
		q.highWater = q.n
	}
	if ev.at != q.last {
		q.add(int(radixBucketOf(ev.at, q.last)), &ev)
		return
	}
	q.pushZero(ev)
}

// pushZero appends ev to bucket 0.
func (q *radixQueue) pushZero(ev event) {
	if q.zhead == len(q.zero) {
		q.zero, q.zhead = q.zero[:0], 0
	}
	if len(q.zero) > q.zhead && ev.from < q.zero[len(q.zero)-1].from {
		q.unsorted = true
	}
	//lint:pooled bucket 0's backing persists for the shard's lifetime; growth amortizes to the most events one instant holds
	q.zero = append(q.zero, ev)
}

// add appends *ev to bucket i ≥ 1. redistribute repeats its body in its
// inner loop, where the call would cost about a tenth of each move.
func (q *radixQueue) add(i int, ev *event) {
	b := &q.buckets[i]
	if b.fill == radixChunkLen {
		q.extend(i)
	}
	// fill < radixChunkLen here; the mask only spares a bounds check.
	b.tailChunk[b.fill&(radixChunkLen-1)] = *ev
	b.fill++
	if ev.at < b.min {
		b.min = ev.at
	}
}

// extend links a fresh chunk to the tail of bucket i: one off the free
// list, or the next one never handed out, on a new page if need be.
func (q *radixQueue) extend(i int) {
	c := q.free
	if c >= 0 {
		q.free = q.next[c]
	} else {
		if q.chunks == int32(len(q.pages))<<radixPageShift {
			//lint:pooled pages persist for the shard's lifetime; one is added only past the chunk high-water mark
			q.pages = append(q.pages, new(radixPage))
		}
		c = q.chunks
		q.chunks++
		//lint:pooled the links persist for the shard's lifetime; they grow only past the chunk high-water mark
		q.next = append(q.next, -1)
	}
	b := &q.buckets[i]
	if b.head < 0 {
		b.head = c
		q.mask[i>>6] |= 1 << uint(i&63)
	} else {
		q.next[b.tail] = c
	}
	b.tail, b.fill, b.tailChunk = c, 0, q.chunk(c)
}

// pop removes and returns the earliest pending event by (at, from), the
// earliest pushed among those of one instant and origin.
// Records hold no pointer, so a vacated slot is simply left behind. A pop
// on an empty queue panics.
func (q *radixQueue) pop() event {
	if q.zhead == len(q.zero) {
		if q.n == 0 {
			panic("megasim: pop from empty radix queue")
		}
		q.redistribute(q.lowest())
	}
	if q.unsorted {
		// Insertion sort and in-place merges: no allocation, and stable.
		slices.SortStableFunc(q.zero[q.zhead:], evFromCmp)
		q.unsorted = false
	}
	ev := q.zero[q.zhead]
	q.zhead++
	q.n--
	return ev
}

// lowest returns the lowest non-empty bucket above 0; some bucket must
// hold events.
func (q *radixQueue) lowest() int {
	w := 0
	for q.mask[w] == 0 {
		w++
	}
	return w<<6 | bits.TrailingZeros64(q.mask[w])
}

// redistribute makes bucket i's minimum the new last and moves the
// bucket's events down: those at the new last into bucket 0, the rest
// into buckets of lower digit positions than i's. Bucket 0 and every
// bucket below i are empty on entry.
func (q *radixQueue) redistribute(i int) {
	b := q.buckets[i]
	q.buckets[i] = emptyRadixBucket
	q.mask[i>>6] &^= 1 << uint(i&63)
	last := b.min
	q.last = last
	zero := q.zero[:0]
	for c := b.head; ; {
		n := int32(radixChunkLen)
		if c == b.tail {
			n = b.fill
		}
		src := q.chunk(c)
		for j := int32(0); j < n; j++ {
			ev := &src[j]
			if ev.at != last {
				// add, inlined.
				k := radixBucketOf(ev.at, last)
				d := &q.buckets[k]
				if d.fill == radixChunkLen {
					q.extend(int(k))
				}
				d.tailChunk[d.fill&(radixChunkLen-1)] = *ev
				d.fill++
				if ev.at < d.min {
					d.min = ev.at
				}
				continue
			}
			if len(zero) > 0 && ev.from < zero[len(zero)-1].from {
				q.unsorted = true
			}
			//lint:pooled bucket 0's backing persists for the shard's lifetime; growth amortizes to the most events one instant holds
			zero = append(zero, *ev)
		}
		next := q.next[c]
		q.next[c], q.free = q.free, c
		if c == b.tail {
			break
		}
		c = next
	}
	q.zero, q.zhead = zero, 0
}

func evFromCmp(a, b event) int { return cmp.Compare(a.from, b.from) }

// peekAt returns the earliest pending timestamp without moving last.
func (q *radixQueue) peekAt() (time.Duration, bool) {
	if q.zhead < len(q.zero) {
		return q.last, true
	}
	if q.n == 0 {
		return 0, false
	}
	return q.buckets[q.lowest()].min, true
}

// len reports how many events are pending.
func (q *radixQueue) len() int { return q.n }

// peak reports the pending-event high-water mark (ShardLoads' HeapPeak).
func (q *radixQueue) peak() int { return q.highWater }
