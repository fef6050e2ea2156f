package megasim

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// refHeap is the 4-ary min-heap the radix queue replaced, kept as the
// differential's reference: O(log n) sifts over (at, from, push order),
// with no assumption about the schedule's shape. The driver tags each
// event's ref with its push index, which stands for push order here.
type refHeap struct {
	h         []event
	highWater int
}

func (q *refHeap) push(ev event) {
	q.h = append(q.h, ev)
	q.highWater = max(q.highWater, len(q.h))
	evSiftUp(q.h, len(q.h)-1)
}

func (q *refHeap) pop() event {
	top, n := q.h[0], len(q.h)-1
	q.h[0] = q.h[n]
	q.h = q.h[:n]
	if n > 0 {
		evSiftDown(q.h, 0)
	}
	return top
}

func (q *refHeap) peekAt() (time.Duration, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].at, true
}

func (q *refHeap) len() int  { return len(q.h) }
func (q *refHeap) peak() int { return q.highWater }

func evLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.from != b.from {
		return a.from < b.from
	}
	return a.ref < b.ref
}

// evSiftUp and evSiftDown restore the 4-ary min-heap invariant over h
// after an append at i / a root replacement. Both use hole insertion:
// entries shift toward the hole and the moving element is written once.
func evSiftUp(h []event, i int) {
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !evLess(&ev, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

func evSiftDown(h []event, i int) {
	n := len(h)
	ev := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if evLess(&h[j], &h[m]) {
				m = j
			}
		}
		if !evLess(&h[m], &ev) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ev
}

// driveQueues feeds an identical randomly generated schedule to a fresh
// radix queue and the reference heap, and fails if their observable
// behavior — lengths, peek timestamps, the exact pop sequence and the
// pending peak — ever diverges. Each event's ref is its push index, and
// its origin is drawn from a few, so that origins tie often.
//
// The generator covers the shapes the engine produces: stable ~periodic
// gaps (the gossip common case), heavy-tailed gaps (occasional 1000x
// spreads), same-timestamp bursts (barrier fan-out, where origin and push
// order break ties), mid-run inserts behind or exactly at the peeked minimum (barrier
// admissions after a peek, which the bucket minimum must absorb), and a
// drain to empty followed by a push far ahead. It adds the radix queue's
// own edges: timestamps on both sides of a power-of-two boundary and of a
// multiple of a power of 16 (a digit boundary), leads whose top 4-bit
// digit is 15, at = 0, leads of 2^40 ns and more, and a same-instant burst
// split across the redistribution that makes its instant the radix queue's
// last, half of them with falling origins. Pushes never precede the last
// popped timestamp, matching the engine's invariant.
func driveQueues(t *testing.T, rng *rand.Rand, ops int) {
	t.Helper()
	q, ref := newRadixQueue(), &refHeap{}
	var pushed uint32
	var lastPop time.Duration
	pushFrom := func(at time.Duration, from NodeID) {
		ev := event{at: at, from: from, ref: pushed}
		pushed++
		q.push(ev)
		ref.push(ev)
	}
	push := func(at time.Duration) { pushFrom(at, NodeID(rng.Intn(6))) }
	peek := func(op int) (time.Duration, bool) {
		at, ok := ref.peekAt()
		if qa, qok := q.peekAt(); qok != ok || qa != at {
			t.Fatalf("op %d: peek diverged: radix (%v,%v), reference (%v,%v)", op, qa, qok, at, ok)
		}
		return at, ok
	}
	pop := func(op int) {
		want := ref.pop()
		if ev := q.pop(); ev != want {
			t.Fatalf("op %d: pop diverged: radix (%v, from %d, push %d), reference (%v, from %d, push %d)", op, ev.at, ev.from, ev.ref, want.at, want.from, want.ref)
		}
		lastPop = want.at
	}
	for i := 0; i < ops; i++ {
		if q.len() != ref.len() {
			t.Fatalf("op %d: len diverged: radix %d, reference %d", i, q.len(), ref.len())
		}
		switch r := rng.Intn(100); {
		case r < 40 || ref.len() == 0:
			// Push at the last popped time plus a gap: usually periodic,
			// sometimes zero (same-instant burst), sometimes heavy-tailed.
			gap := time.Duration(rng.Intn(220)) * time.Millisecond
			switch rng.Intn(10) {
			case 0:
				gap = 0
			case 1:
				gap *= 1000
			}
			push(lastPop + gap)
			// Same-timestamp burst: several events at one instant, so the
			// pop order is decided by origin and push order alone.
			if rng.Intn(8) == 0 {
				for b := rng.Intn(6); b > 0; b-- {
					push(lastPop + gap)
				}
			}
		case r < 48:
			switch rng.Intn(5) {
			case 0:
				// Just below, at or just above the next multiple of a power
				// of two past lastPop (before the first pop, the power
				// itself): timestamps whose bucket one carry decides.
				p := time.Duration(1) << rng.Intn(41)
				at := lastPop&^(p-1) + p + time.Duration(rng.Intn(3)-1)
				push(max(at, lastPop))
			case 1:
				// A lead of 2^40 ns or more (≈18 minutes and up).
				push(lastPop + 1<<40 + time.Duration(rng.Int63n(1<<42)))
			case 2:
				// Just below, at or just above one of the next multiples
				// of 16^k past lastPop, k ≤ 11: timestamps whose digit
				// position one carry decides.
				p := time.Duration(1) << (4 * rng.Intn(12))
				at := (lastPop/p+1+time.Duration(rng.Intn(3)))*p + time.Duration(rng.Intn(3)-1)
				push(max(at, lastPop))
			case 3:
				// A lead whose top 4-bit digit is 15, the last bucket of
				// its position when lastPop's digit there is 0.
				k := 4 * rng.Intn(11)
				push(lastPop + 15<<k + time.Duration(rng.Int63n(1<<k)))
			default:
				// At lastPop itself, which is at = 0 until the first pop.
				push(lastPop)
			}
		case r == 48 && rng.Intn(20) == 0:
			// Drain to empty, then push an hour or more ahead: the first
			// push after the drain lands in a high bucket of an empty
			// queue, and the next pop must reach it in one step.
			for ref.len() > 0 {
				pop(i)
			}
			push(lastPop + time.Hour + time.Duration(rng.Int63n(int64(time.Hour))))
		case r < 52:
			// A same-instant burst split across a redistribution: events
			// at the peeked minimum, a pop that makes it the radix queue's
			// last, then more at the same instant — pushed into bucket 0 as
			// it drains, and once it has drained. Every other burst takes
			// its origins in falling order, the rest a few origins at
			// random, so that several events share one.
			at, _ := peek(i)
			n, falling := 1+rng.Intn(40), rng.Intn(2) == 0
			for k := 0; k < n; k++ {
				if falling {
					pushFrom(at, NodeID(n-1-k))
				} else {
					push(at)
				}
			}
			pop(i)
			for b := rng.Intn(5); b > 0; b-- {
				push(at)
			}
			for b := rng.Intn(60); b > 0 && ref.len() > 0; b-- {
				if next, _ := peek(i); next != at {
					break
				}
				pop(i)
			}
			push(at)
		case r < 75:
			at, ok := peek(i)
			// Mid-window insert behind or at the peeked minimum: landing in
			// [lastPop, at) must lower the minimum a peek already read.
			if ok && at > lastPop && rng.Intn(3) == 0 {
				push(lastPop + time.Duration(rng.Int63n(int64(at-lastPop)+1)))
			} else if ok && rng.Intn(4) == 0 {
				push(at)
			}
		default:
			pop(i)
		}
	}
	// Drain: the full residual order must match too.
	for ref.len() > 0 {
		pop(ops)
	}
	if q.len() != 0 {
		t.Fatalf("drain: radix still holds %d events", q.len())
	}
	if q.peak() != ref.peak() {
		t.Fatalf("peak diverged: radix %d, reference %d", q.peak(), ref.peak())
	}
	checkRadixChunks(t, q)
}

// FuzzQueueDifferential holds the radix queue to the reference heap's
// observable behavior under arbitrary schedules.
func FuzzQueueDifferential(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint16(4000))
	}
	f.Fuzz(func(t *testing.T, seed int64, ops uint16) {
		driveQueues(t, rand.New(rand.NewSource(seed)), int(ops))
	})
}

// TestQueueDifferentialLongRuns is the always-on slice of the fuzz space:
// long mixed schedules that cross every radix bucket, many
// redistributions and several drains.
func TestQueueDifferentialLongRuns(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		driveQueues(t, rand.New(rand.NewSource(seed)), 60000)
	}
}

// checkRadixChunks fails if q has handed out more chunks than its pending
// peak fills plus one partial chunk for each bucket, and two more (the
// chunk a redistribution is reading, and rounding), or more pages than
// those chunks need.
func checkRadixChunks(t *testing.T, q *radixQueue) {
	t.Helper()
	if bound := (q.peak()+radixChunkLen-1)/radixChunkLen + len(q.buckets) + 2; int(q.chunks) > bound {
		t.Fatalf("%d chunks handed out, want at most %d at a peak of %d events", q.chunks, bound, q.peak())
	}
	if pages := (int(q.chunks) + radixPageChunks - 1) / radixPageChunks; len(q.pages) != pages {
		t.Fatalf("%d pages for %d chunks, want %d", len(q.pages), q.chunks, pages)
	}
}

// TestRadixBucketOrder checks the order pop and peekAt rely on: for
// timestamps at or after last, the bucket index never falls as at rises
// (at = last itself being bucket 0), so the lowest non-empty bucket holds
// the minimum; and two events of one bucket share every digit from its
// position up, so redistributing the bucket about either sends the other
// to a strictly lower position. It walks random lasts and timestamps, and
// timestamps at and ±1 around multiples of every power of 16.
func TestRadixBucketOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bucket := func(at, last time.Duration) int {
		if at == last {
			return 0
		}
		return int(radixBucketOf(at, last))
	}
	for round := 0; round < 2000; round++ {
		last := time.Duration(rng.Int63n(1 << (1 + rng.Intn(62))))
		ats := []time.Duration{last}
		for i := 0; i < 20; i++ {
			lead := time.Duration(rng.Int63n(1 << (1 + rng.Intn(60))))
			ats = append(ats, last+lead)
		}
		for k := 0; k < 15; k++ {
			p := time.Duration(1) << (4 * k)
			for m := last/p + 1; m <= last/p+16 && m <= (1<<62)/p; m++ {
				for d := time.Duration(-1); d <= 1; d++ {
					if at := m*p + d; at >= last {
						ats = append(ats, at)
					}
				}
			}
		}
		slices.Sort(ats)
		for i := 1; i < len(ats); i++ {
			a, b := ats[i-1], ats[i]
			ba, bb := bucket(a, last), bucket(b, last)
			if ba > bb {
				t.Fatalf("last %#x: at %#x goes to bucket %d, the later %#x to %d", last, a, ba, b, bb)
			}
			if ba == bb && a != b && a != last {
				if p, q := ba>>4, int(radixBucketOf(b, a))>>4; q >= p {
					t.Fatalf("last %#x: %#x and %#x share bucket %d (position %d), yet redistributing about the first puts the second at position %d", last, a, b, ba, p, q)
				}
			}
			if bb != 0 && bb&15 == 0 {
				t.Fatalf("last %#x: at %#x goes to bucket %d, of digit 0, which a later timestamp never has", last, b, bb)
			}
		}
	}
}

// TestRadixQueueAllocBudget holds the shard's queue to its memory and
// contract promises: a warm hold model at 100k pending allocates nothing,
// the chunks in use never outgrow the pending peak by more than one
// partial chunk per bucket, a 200k-event same-instant burst pops by
// origin, then push order, within a time budget — even with falling
// origins, through a redistribution and through pushes at the last pop —
// and a push before the last pop or a pop on an empty queue panics by
// name.
func TestRadixQueueAllocBudget(t *testing.T) {
	t.Run("hold", func(t *testing.T) {
		if raceEnabled {
			t.Skip("allocation counts are meaningless under the race detector")
		}
		q := newRadixQueue()
		jitter := benchQueueSetup(q)
		// AllocsPerRun calls the function once to warm up before the
		// measured call: a million hold pops and pushes each.
		allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < 1_000_000; i++ {
				ev := q.pop()
				ev.at += benchQueuePeriod + jitter[i&1023]
				q.push(ev)
			}
		})
		if allocs != 0 {
			t.Errorf("a million warm hold operations allocated %v times, want 0", allocs)
		}
		checkRadixChunks(t, q)
	})
	t.Run("same-instant burst", func(t *testing.T) {
		if raceEnabled {
			t.Skip("the time budget assumes an uninstrumented build")
		}
		const n = 100_000
		q := newRadixQueue()
		start := time.Now()
		// Origins 0..n-1 in falling order into a bucket, each the first
		// event of its origin (ref 0); the first pop redistributes them
		// into bucket 0.
		for k := n - 1; k >= 0; k-- {
			q.push(event{at: time.Second, from: NodeID(k)})
		}
		if ev := q.pop(); ev.from != 0 {
			t.Fatalf("first pop is from %d, want 0", ev.from)
		}
		// Origins n-1..1, falling, at the last pop itself, each the second
		// event of its origin (ref 1): it pops after the first.
		for k := n - 1; k >= 1; k-- {
			q.push(event{at: time.Second, from: NodeID(k), ref: 1})
		}
		for want := 2; want < 2*n; want++ {
			from, ref := NodeID(want/2), uint32(want%2)
			if ev := q.pop(); ev.at != time.Second || ev.from != from || ev.ref != ref {
				t.Fatalf("pop (%v, from %d, ref %d), want (1s, from %d, ref %d)", ev.at, ev.from, ev.ref, from, ref)
			}
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("a %d-event same-instant burst took %v, want under 1s", 2*n, d)
		}
		checkRadixChunks(t, q)
	})
	t.Run("contract breaks panic", func(t *testing.T) {
		mustPanic := func(want string, f func()) {
			t.Helper()
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, want) {
					t.Errorf("panic %q, want one naming %q", msg, want)
				}
			}()
			f()
		}
		q := newRadixQueue()
		mustPanic("pop from empty radix queue", func() { q.pop() })
		q.push(event{at: time.Second})
		q.pop()
		mustPanic("precedes the last pop", func() { q.push(event{at: time.Second - 1}) })
	})
}
