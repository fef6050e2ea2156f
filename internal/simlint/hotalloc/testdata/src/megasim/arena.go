// arena.go is the fixture twin of the engine's slot-recycling machinery:
// (*Engine).Crash, drainQuarantine, and takeFree are configured hot
// roots — Crash runs per departure, the drains per admission — so the
// free-list appends are audited (reused capacity asserts //lint:pooled)
// while the generation-tagged handle decode stays flat bit arithmetic
// with nothing to flag.
package megasim

const (
	arenaSlotBits = 21
	arenaSlotMask = 1<<arenaSlotBits - 1
)

type quarEntry struct {
	slot int32
	at   int64
}

type Engine struct {
	gens      []uint16
	quar      []quarEntry
	quarHead  int
	free      []int32
	freeHead  int
	outbox    []quarEntry
	now       int64
	lookahead int64
}

// SendFrom is a hot root: the LEAVE fan-out path, called once per view
// entry at a graceful-departure barrier. The handle decode it shares with
// Crash stays flat bit arithmetic; the outbox append is audited.
func (e *Engine) SendFrom(from, to uint32) {
	if e.stale(from) {
		return
	}
	e.outbox = append(e.outbox, quarEntry{slot: int32(to & arenaSlotMask), at: e.now}) // want `append in hot path \(\(\*Engine\)\.SendFrom\)`

	//lint:pooled outbox backings are reused across windows (reset to length zero at merge)
	e.outbox = append(e.outbox, quarEntry{slot: int32(to & arenaSlotMask), at: e.now}) // annotated: fine
}

// Crash is a hot root: it parks the slot in the quarantine ring.
func (e *Engine) Crash(id uint32) {
	if e.stale(id) {
		// Cold paths stay exempt: the engine panics on programmer error,
		// never per departure.
		panic("megasim: Crash of stale handle")
	}
	e.quar = append(e.quar, quarEntry{slot: int32(id & arenaSlotMask), at: e.now}) // want `append in hot path \(\(\*Engine\)\.Crash\)`

	//lint:pooled quarantine ring capacity is reused once fully drained
	e.quar = append(e.quar, quarEntry{slot: int32(id & arenaSlotMask), at: e.now}) // annotated: fine
}

// stale is the handle-decode fast path, reachable from the Crash root:
// pure shift-and-mask arithmetic, nothing for the analyzer to flag.
func (e *Engine) stale(id uint32) bool {
	return int(e.gens[id&arenaSlotMask]) != int(id>>arenaSlotBits)
}

// drainQuarantine is a hot root: expired slots move to the free list.
// The reset/compaction branches are plain slice arithmetic — copy into an
// existing backing allocates nothing and must stay unflagged.
func (e *Engine) drainQuarantine() {
	for e.quarHead < len(e.quar) {
		q := e.quar[e.quarHead]
		if e.now < q.at+e.lookahead {
			break
		}
		e.quarHead++
		e.free = append(e.free, q.slot) // want `append in hot path \(\(\*Engine\)\.drainQuarantine\)`
	}
	if e.quarHead == len(e.quar) {
		e.quar, e.quarHead = e.quar[:0], 0
	} else if e.quarHead >= (len(e.quar)+1)/2 {
		n := copy(e.quar, e.quar[e.quarHead:])
		e.quar, e.quarHead = e.quar[:n], 0
	}
	//lint:pooled free-list capacity is reused in place
	e.free = append(e.free, 0) // annotated: fine
}

// takeFree is a hot root reaching drainQuarantine; the FIFO pop and its
// midpoint compaction are cursor arithmetic on reused backings and stay
// clean.
func (e *Engine) takeFree() (int, bool) {
	e.drainQuarantine()
	if e.freeHead >= len(e.free) {
		e.free, e.freeHead = e.free[:0], 0
		return 0, false
	}
	slot := e.free[e.freeHead]
	e.freeHead++
	if e.freeHead >= (len(e.free)+1)/2 {
		n := copy(e.free, e.free[e.freeHead:])
		e.free, e.freeHead = e.free[:n], 0
	}
	return int(slot), true
}
