package megasim

import (
	"math/rand"
	"testing"
	"time"
)

// driveQueues feeds an identical randomly generated schedule to a fresh
// heap and a fresh calendar queue and fails if their observable behavior
// — peek timestamps and the exact (at, seq) pop sequence — ever diverges.
//
// The generator covers the shapes the engine produces: stable ~periodic
// gaps (the gossip common case), heavy-tailed gaps (occasional 1000x
// spreads, which exercise the overflow rung and skew rebuilds),
// same-timestamp bursts (barrier fan-out, where only seq breaks ties),
// and mid-run inserts behind the peeked minimum (barrier admissions after
// a peek advanced the calendar cursor — the rewind path). Pushes never
// precede the last popped timestamp, matching the engine's invariant.
func driveQueues(t *testing.T, rng *rand.Rand, ops int) {
	t.Helper()
	h, c := newScheduler(QueueHeap), newScheduler(QueueCalendar)
	var seq uint64
	var lastPop time.Duration
	push := func(at time.Duration) {
		ev := event{at: at, seq: seq}
		seq++
		h.push(ev)
		c.push(ev)
	}
	for i := 0; i < ops; i++ {
		if h.len() != c.len() {
			t.Fatalf("op %d: len diverged: heap %d calendar %d", i, h.len(), c.len())
		}
		switch r := rng.Intn(100); {
		case r < 45 || h.len() == 0:
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
			// pop order is decided by seq alone.
			if rng.Intn(8) == 0 {
				for b := rng.Intn(6); b > 0; b-- {
					push(lastPop + gap)
				}
			}
		case r < 75:
			ha, hok := h.peekAt()
			ca, cok := c.peekAt()
			if hok != cok || ha != ca {
				t.Fatalf("op %d: peek diverged: heap (%v,%v) calendar (%v,%v)", i, ha, hok, ca, cok)
			}
			// Mid-window insert behind the peeked minimum: the calendar
			// cursor has advanced to ha's slot; landing in [lastPop, ha]
			// forces a rewind.
			if hok && ha > lastPop && rng.Intn(3) == 0 {
				push(lastPop + time.Duration(rng.Int63n(int64(ha-lastPop)+1)))
			}
		default:
			he, ce := h.pop(), c.pop()
			if he.at != ce.at || he.seq != ce.seq {
				t.Fatalf("op %d: pop diverged: heap (%v,%d) calendar (%v,%d)", i, he.at, he.seq, ce.at, ce.seq)
			}
			lastPop = he.at
		}
	}
	// Drain: the full residual order must match too.
	for h.len() > 0 {
		he, ce := h.pop(), c.pop()
		if he.at != ce.at || he.seq != ce.seq {
			t.Fatalf("drain: pop diverged: heap (%v,%d) calendar (%v,%d)", he.at, he.seq, ce.at, ce.seq)
		}
	}
	if c.len() != 0 {
		t.Fatalf("drain: calendar still holds %d events", c.len())
	}
	if h.peak() != c.peak() {
		t.Fatalf("peak diverged: heap %d calendar %d", h.peak(), c.peak())
	}
}

// FuzzQueueDifferential holds the two schedulers to identical observable
// behavior under arbitrary schedules.
func FuzzQueueDifferential(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint16(4000))
	}
	f.Fuzz(func(t *testing.T, seed int64, ops uint16) {
		driveQueues(t, rand.New(rand.NewSource(seed)), int(ops))
	})
}

// TestQueueDifferentialLongRuns is the always-on slice of the fuzz space:
// long mixed schedules that cross every calendar reorganization (growth
// and shrink rebuilds, overflow folds, rewinds, empty-year jumps).
func TestQueueDifferentialLongRuns(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		driveQueues(t, rand.New(rand.NewSource(seed)), 60000)
	}
}

// TestCalendarRewindBehindCursor pins the rewind path directly: a peek
// walks the cursor far forward across empty slots, then an insert lands
// behind it (a barrier admission) and must still pop first.
func TestCalendarRewindBehindCursor(t *testing.T) {
	q := newCalendarQueue()
	q.push(event{at: 10 * time.Second, seq: 0})
	if at, ok := q.peekAt(); !ok || at != 10*time.Second {
		t.Fatalf("peek = (%v,%v), want 10s", at, ok)
	}
	q.push(event{at: time.Millisecond, seq: 1})
	if at, ok := q.peekAt(); !ok || at != time.Millisecond {
		t.Fatalf("peek after rewind = (%v,%v), want 1ms", at, ok)
	}
	if ev := q.pop(); ev.at != time.Millisecond || ev.seq != 1 {
		t.Fatalf("pop = (%v,%d), want (1ms,1)", ev.at, ev.seq)
	}
	if ev := q.pop(); ev.at != 10*time.Second || ev.seq != 0 {
		t.Fatalf("pop = (%v,%d), want (10s,0)", ev.at, ev.seq)
	}
}

// TestCalendarHeavyTailOverflow drives a schedule whose horizon dwarfs
// any sane bucket year — most events land on the overflow rung — and
// checks the fold/rebuild machinery returns them in exact order.
func TestCalendarHeavyTailOverflow(t *testing.T) {
	q := newCalendarQueue()
	rng := rand.New(rand.NewSource(99))
	const n = 5000
	ats := make([]time.Duration, n)
	for i := range ats {
		// Exponential-ish tail: 1ms to ~1000s.
		at := time.Duration(1+rng.Int63n(1000)) * time.Millisecond
		for rng.Intn(3) == 0 {
			at *= 10
		}
		ats[i] = at
		q.push(event{at: at, seq: uint64(i)})
	}
	var prev event
	for i := 0; i < n; i++ {
		ev := q.pop()
		if i > 0 && !evLess(&prev, &ev) {
			t.Fatalf("pop %d: (%v,%d) not after (%v,%d)", i, ev.at, ev.seq, prev.at, prev.seq)
		}
		prev = ev
	}
	if q.len() != 0 {
		t.Fatalf("len after drain = %d", q.len())
	}
}

// TestCalendarEmptyThenReanchor drains the queue completely, then pushes
// at a far-future instant: the year must re-anchor there instead of
// scanning the gap slot by slot.
func TestCalendarEmptyThenReanchor(t *testing.T) {
	q := newCalendarQueue()
	q.push(event{at: time.Millisecond, seq: 0})
	q.pop()
	q.push(event{at: time.Hour, seq: 1})
	if ev := q.pop(); ev.at != time.Hour {
		t.Fatalf("pop = %v, want 1h", ev.at)
	}
	if q.peak() != 1 {
		t.Fatalf("peak = %d, want 1", q.peak())
	}
}
