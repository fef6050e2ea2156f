package megasim

import (
	"math/bits"
	"time"
)

// calendarQueue is the O(1)-amortized scheduler: a classic calendar queue
// (Brown 1988) with a ladder-style overflow rung for far-future events.
//
// Time is divided into slots of a self-tuned width; slot s maps to bucket
// s mod nbuckets (nbuckets is a power of two, so the mod is a mask). Each
// bucket keeps its events sorted by (at, seq), so the bucket head is the
// bucket minimum and same-instant ties pop in sequence order — the exact
// total order the radix heap maintains, which is what keeps fixed-(seed,
// shards) replays bit-identical across queue kinds. Dequeue walks the
// cursor slot by slot through the current "year" (one full rotation of
// the bucket array); every pending event of the cursor's slot lives in
// the cursor's bucket, and events of later years sit sorted behind the
// bucket head, so the head check `at < slotEnd` is the entire year test.
//
// Gossip workloads are the textbook fit with one twist: traffic
// concentrates around the ~200 ms shuffle/tick period, so the bulk of the
// pending set has short, stable leads — but a thin tail (membership and
// stats timers seconds out) stretches the overall span to many times the
// mass's horizon. Tuning the year to the raw span would explode the
// bucket array to cover sparse far-future slots (at 10k nodes: a
// 17-second year over 262k buckets, each ratcheting a multi-KB backing —
// the GC bill erases the scheduling win). Instead the year is sized to
// the observed lead-time distribution (rebuild) and the tail waits on the
// rung.
//
// The ladder rung: events at or beyond one full year ahead of the cursor
// rest in a 4-ary min-heap ordered by (at, seq). The cursor's advance
// folds them in incrementally — pop the rung minimum into its bucket the
// moment its slot comes up (fold) — so a large far-future stock costs
// one heap trip per event, never a mass reinsertion. The rung's sift
// routines (evSiftUp, evSiftDown) are an O(log n) heap on a contiguous
// array, which is perfectly fine here, because only the thin tail of
// pushes ever lands there.
//
// Self-tuning: rebuild() histograms the pending leads into log2 bins,
// sets the year to the smallest power of two covering all but the
// farthest ~1/8 of the stock, and resizes the bucket array so average
// in-year occupancy sits near calTargetOccupancy (a few events per
// bucket — denser than the textbook tuning, which buys cache locality
// and stable bucket capacities at the cost of a short in-bucket search).
// Widths are powers of two so the slot of a timestamp is a shift.
// Rebuilds trigger on growth (occupancy far above target), shrink (far
// below), rung skew (the year mistuned so badly the rung dwarfs the
// calendar), and bucket clustering (a mistuned width piling events into
// one bucket); each is O(n) and amortizes against the population change
// that caused it.
type calendarQueue struct {
	buckets []calBucket
	mask    int // len(buckets)-1; len is a power of two
	// width is the slot width, always a power of two so the slot of a
	// timestamp is a shift, not a division. shift is log2(width).
	width time.Duration
	shift uint

	// cur is the dequeue cursor: the bucket of the current slot. slotEnd
	// is the exclusive end of that slot; limit = slotEnd plus the rest of
	// the year — events at or beyond it go to the overflow rung.
	cur     int
	slotEnd time.Duration
	limit   time.Duration

	inYear   int     // events resident in buckets
	total    int     // events pending (buckets + rung + stage)
	overflow []event // ladder rung: events >= limit, a 4-ary min-heap by (at, seq)

	// stage buffers pushes so bucket placement runs in batches (push);
	// stageMin is the earliest staged timestamp, infTime when empty.
	stage        []event
	stageScratch []event // spare staging backing, swapped on drain
	stageMin     time.Duration

	highWater    int
	sinceRebuild int     // pushes+pops since the last rebuild (thrash guard)
	scratch      []event // rebuild collection buffer, reused
}

// calBucket is one calendar slot's residents in (at, seq) order. head
// indexes the first un-popped event; the backing is reset once the bucket
// drains, so capacity is reused across year wraps.
//
// Sorting is lazy: push appends and sets dirty when the new event lands
// out of order, and the dequeue path insertion-sorts the un-popped tail
// the first time it serves the bucket. Each event is therefore ordered
// once per bucket residency instead of shifted into place on every
// insert, the dominant cost of the eager variant.
type calBucket struct {
	evs   []event
	head  int
	dirty bool
}

// sort restores (at, seq) order over the un-popped tail. Buckets hold a
// handful of events (calTargetOccupancy, bounded by the clustering
// rebuild trigger), so insertion sort inside one or two cache lines wins
// over anything with allocation or indirection.
func (b *calBucket) sort() {
	evs := b.evs
	for i := b.head + 1; i < len(evs); i++ {
		ev := evs[i]
		j := i
		for j > b.head && evLess(&ev, &evs[j-1]) {
			evs[j] = evs[j-1]
			j--
		}
		evs[j] = ev
	}
	b.dirty = false
}

const (
	calMinBuckets = 64
	calMaxBuckets = 1 << 20
	// calTargetOccupancy is the in-year events-per-bucket rebuild aims
	// for. Above-one occupancy trades a short in-bucket search for much
	// better locality: fewer, denser buckets whose backings stabilize.
	calTargetOccupancy = 4
	// calStageMax is the staging-buffer drain threshold: big enough to
	// overlap the random-bucket misses, small enough to stay L1-resident.
	calStageMax = 64
	// calTailShift sets the stock fraction the year must cover at rebuild:
	// all but the farthest 1/2^calTailShift of pending events. The
	// remainder — the sparse long-lead tail — waits on the rung.
	calTailShift = 3
)

func newCalendarQueue() *calendarQueue {
	q := &calendarQueue{
		buckets:  make([]calBucket, calMinBuckets),
		mask:     calMinBuckets - 1,
		width:    1 << 20, // ~1ms placeholder until the first rebuild observes real spacing
		shift:    20,
		stageMin: infTime,
	}
	q.moveTo(0)
	return q
}

// moveTo points the cursor at the slot containing t.
func (q *calendarQueue) moveTo(t time.Duration) {
	s := t >> q.shift
	q.cur = int(s) & q.mask
	q.slotEnd = (s + 1) << q.shift
	q.limit = q.slotEnd + time.Duration(len(q.buckets)-1)<<q.shift
}

// push records ev in the staging buffer; the calendar proper sees it at
// the next drain. Staging batches the cache-cold bucket writes: placing
// an event touches an effectively random bucket in a working set far
// beyond cache, and draining 64 at once lets those misses overlap in the
// memory pipeline instead of serializing, one per push, on the hot path.
func (q *calendarQueue) push(ev event) {
	if q.total == 0 {
		// Empty queue: re-anchor the year at the new event so a long idle
		// gap never has to be scanned slot by slot.
		q.moveTo(ev.at)
	}
	q.total++
	if q.total > q.highWater {
		q.highWater = q.total
	}
	q.sinceRebuild++
	//lint:pooled the staging buffer's backing is bounded (calStageMax) and reused across drains
	q.stage = append(q.stage, ev)
	if ev.at < q.stageMin {
		q.stageMin = ev.at
	}
	if len(q.stage) >= calStageMax {
		q.drainStage()
	}
}

// drainStage places every staged event into its bucket or onto the rung,
// then runs the resize triggers once for the batch: growth (in-year
// occupancy far above target), rung skew (a mistuned year sending nearly
// everything to the rung), and clustering (one bucket swallowing a
// mistuned width's worth of events).
func (q *calendarQueue) drainStage() {
	evs := q.stage
	q.stage = q.stageScratch[:0]
	q.stageMin = infTime
	for i := range evs {
		idx := q.insert(&evs[i])
		if idx >= 0 && q.clustered(idx) {
			// rebuild resets q.stage's replacement too, so the remaining
			// staged events in evs insert into the retuned calendar.
			q.rebuild()
		}
	}
	q.stageScratch = evs[:0]
	if q.inYear > 2*calTargetOccupancy*len(q.buckets) && len(q.buckets) < calMaxBuckets ||
		len(q.overflow) > 4*q.inYear && len(q.overflow) > 4*calTargetOccupancy*len(q.buckets) {
		q.rebuild()
	}
}

// clustered reports whether the bucket has collected far more than its
// share of the pending events — the signature of a width tuned too wide
// (many slots' worth of events landing in one bucket). Guarded by a full
// queue turnover since the last rebuild so genuinely co-timed bursts,
// which no width can spread, cannot force back-to-back rebuilds.
func (q *calendarQueue) clustered(idx int) bool {
	b := &q.buckets[idx]
	live := len(b.evs) - b.head
	return live > 128 && live > 8*(q.inYear/len(q.buckets)+1) && q.sinceRebuild > q.total
}

// bucketInsert appends ev to bucket idx, marking the bucket dirty when
// the append broke (at, seq) order; the dequeue path sorts lazily.
func (q *calendarQueue) bucketInsert(idx int, ev *event) {
	b := &q.buckets[idx]
	if n := len(b.evs); n > b.head && evLess(ev, &b.evs[n-1]) {
		b.dirty = true
	}
	//lint:pooled bucket backings persist across year wraps; growth amortizes to steady state
	b.evs = append(b.evs, *ev)
}

// ovPush parks ev on the rung.
func (q *calendarQueue) ovPush(ev *event) {
	//lint:pooled the rung's backing array persists across folds; growth amortizes to steady state
	q.overflow = append(q.overflow, *ev)
	evSiftUp(q.overflow, len(q.overflow)-1)
}

// ovPop removes and returns the rung minimum.
func (q *calendarQueue) ovPop() event {
	h := q.overflow
	top := h[0]
	n := len(h) - 1
	last := h[n]
	q.overflow = h[:n]
	if n > 0 {
		h[0] = last
		evSiftDown(q.overflow, 0)
	}
	return top
}

func evLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// evSiftUp and evSiftDown restore the rung's 4-ary min-heap invariant
// over h after an append at i / a root replacement. Four children are
// half the depth of a binary heap, and four 32-byte records are two cache
// lines. Both use hole insertion: entries shift toward the hole and the
// moving element is written once, instead of pairwise swaps.
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

// locateMin advances the cursor to the slot of the earliest pending
// event and returns its bucket; the caller reads or extracts the head.
// Only mutates cursor state, so peek and pop share it.
func (q *calendarQueue) locateMin() *calBucket {
	if q.inYear == 0 {
		if len(q.stage) > 0 {
			q.drainStage()
		}
		if q.inYear == 0 {
			// Everything pending sits on the rung. Re-anchor the year at
			// its minimum — from the cursor's old position the minimum
			// could still lie beyond the year — so the fold is guaranteed
			// to land at least that event in a bucket.
			q.moveTo(q.overflow[0].at)
			q.fold()
		}
	}
	scanned := 0
	for {
		if q.stageMin < q.slotEnd {
			// A staged event lands at or before the cursor's slot: place
			// the batch before serving, or it would pop out of order.
			q.drainStage()
			scanned = 0
			continue
		}
		if len(q.overflow) > 0 && q.overflow[0].at < q.slotEnd {
			// The rung minimum has come within the cursor's slot: fold it
			// (and any followers in the slot) into the buckets before
			// serving, or it would pop out of order.
			q.fold()
			scanned = 0
			continue
		}
		b := &q.buckets[q.cur]
		if b.head < len(b.evs) {
			if b.dirty {
				b.sort()
			}
			if b.evs[b.head].at < q.slotEnd {
				return b
			}
		}
		q.cur = (q.cur + 1) & q.mask
		q.slotEnd += q.width
		q.limit += q.width
		scanned++
		if scanned > len(q.buckets) {
			// A full year of empty slots: the pending events are all far
			// ahead (possible after a rewind left old residents beyond the
			// current year). Jump the cursor straight to the minimum.
			q.jump()
			scanned = 0
		}
	}
}

// jump moves the cursor directly to the slot of the smallest bucket
// resident — the direct-search escape from an empty year scan. Only
// called with inYear > 0.
func (q *calendarQueue) jump() {
	var min *event
	for i := range q.buckets {
		b := &q.buckets[i]
		if b.head >= len(b.evs) {
			continue
		}
		if b.dirty {
			// Unsorted tail: take the bucket minimum by scan; the serve
			// path sorts when the cursor actually reaches this slot.
			for j := b.head; j < len(b.evs); j++ {
				if h := &b.evs[j]; min == nil || evLess(h, min) {
					min = h
				}
			}
		} else if h := &b.evs[b.head]; min == nil || evLess(h, min) {
			min = h
		}
	}
	q.moveTo(min.at)
}

// pop removes and returns the earliest pending event by (at, seq).
func (q *calendarQueue) pop() event {
	if q.total == 0 {
		panic("megasim: pop from empty calendar queue")
	}
	b := q.locateMin()
	ev := b.evs[b.head]
	b.head++
	if b.head == len(b.evs) {
		b.evs = b.evs[:0]
		b.head = 0
		b.dirty = false
	}
	q.inYear--
	q.total--
	q.sinceRebuild++
	if q.total > 0 && q.inYear < calTargetOccupancy*len(q.buckets)>>3 &&
		len(q.buckets) > calMinBuckets && q.sinceRebuild > q.total {
		q.rebuild()
	}
	return ev
}

// peekAt returns the timestamp of the earliest pending event.
func (q *calendarQueue) peekAt() (time.Duration, bool) {
	if q.total == 0 {
		return 0, false
	}
	b := q.locateMin()
	return b.evs[b.head].at, true
}

func (q *calendarQueue) len() int  { return q.total }
func (q *calendarQueue) peak() int { return q.highWater }

// fold drains every rung event whose slot the cursor has reached into its
// bucket: pop the rung minimum, place it, repeat while the minimum stays
// inside the current slot. Incremental by design — each tail event makes
// exactly one heap trip no matter how large the far-future stock grows,
// where a reinsert-everything fold would thrash on every cursor approach.
func (q *calendarQueue) fold() {
	for len(q.overflow) > 0 && q.overflow[0].at < q.slotEnd {
		ev := q.ovPop()
		q.insert(&ev)
	}
}

// insert routes one event to its bucket or the overflow rung without any
// resize triggers or counter bookkeeping — the shared tail of drainStage,
// fold, and rebuild. Returns the bucket index, or -1 for the rung.
func (q *calendarQueue) insert(ev *event) int {
	if ev.at >= q.limit {
		q.ovPush(ev)
		return -1
	}
	if ev.at < q.slotEnd-q.width {
		// Behind the cursor: legal for barrier-time work (admissions,
		// cross-shard merges) staged after a peek advanced the cursor.
		// Rewind; the skipped empty slots are re-scanned harmlessly.
		q.moveTo(ev.at)
	}
	idx := int(ev.at>>q.shift) & q.mask
	q.bucketInsert(idx, ev)
	q.inYear++
	return idx
}

// rebuild retunes the calendar to the pending set: the year from the
// observed lead-time distribution, bucket count from the population the
// year hosts, cursor at the earliest event. O(n), amortized against the
// growth, drain, or skew that triggered it.
func (q *calendarQueue) rebuild() {
	evs := q.scratch[:0]
	for i := range q.buckets {
		b := &q.buckets[i]
		//lint:pooled the rebuild scratch backing is reused across rebuilds; growth amortizes
		evs = append(evs, b.evs[b.head:]...)
		b.evs = b.evs[:0]
		b.head = 0
		b.dirty = false
	}
	//lint:pooled the rebuild scratch backing is reused across rebuilds; growth amortizes
	evs = append(evs, q.overflow...)
	q.overflow = q.overflow[:0]
	//lint:pooled the rebuild scratch backing is reused across rebuilds; growth amortizes
	evs = append(evs, q.stage...)
	q.stage = q.stage[:0]
	q.stageMin = infTime

	n := len(evs)
	lo := evs[0].at
	for i := 1; i < n; i++ {
		if evs[i].at < lo {
			lo = evs[i].at
		}
	}
	// Histogram the leads (at - lo) into log2 bins: bin b counts leads of
	// bit length b, i.e. leads below 2^b. The smallest power of two
	// covering all but the farthest 1/2^calTailShift of the stock becomes
	// the year; the uncovered tail waits on the rung. Sizing to a stock
	// quantile instead of the raw span is what keeps a thin multi-second
	// tail (membership and stats timers) from inflating the year — and
	// with it the bucket array and its resident backings — by an order of
	// magnitude over the mass's actual horizon.
	var bins [64]int
	for i := range evs {
		bins[bits.Len64(uint64(evs[i].at-lo))]++
	}
	covered := bins[0]
	k := 0
	for target := n - n>>calTailShift; covered < target && k < 62; {
		k++
		covered += bins[k]
	}
	year := time.Duration(1) << uint(k)

	// Bucket count: one bucket per ~4 in-year events. Denser buckets beat
	// the textbook occupancy-1 tuning on real hardware — insertion stays a
	// short search inside one or two cache lines, bucket backings reach a
	// stable capacity instead of churning the allocator, and the dequeue
	// cursor skips fewer empty slots.
	nb := calMinBuckets
	for nb < covered/calTargetOccupancy && nb < calMaxBuckets {
		nb <<= 1
	}
	if nb != len(q.buckets) {
		//lint:pooled a resize runs only when the bucket count doubles or halves, amortized over the events that moved it
		q.buckets = make([]calBucket, nb)
		q.mask = nb - 1
	}
	// Width: the smallest power of two (slot math must stay a shift) whose
	// year — nb slots — covers the lead-quantile horizon.
	w, sh := time.Duration(1), uint(0)
	for w*time.Duration(nb) < year {
		w <<= 1
		sh++
	}
	q.width = w
	q.shift = sh
	q.inYear = 0
	q.moveTo(lo)
	for i := range evs {
		q.insert(&evs[i])
	}
	q.scratch = evs[:0]
	q.sinceRebuild = 0
}
