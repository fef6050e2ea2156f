// Package megasim is a hotalloc fixture shaped like the sharded engine's
// dispatch loop: (*shard).runWindow is the configured hot root, and the
// analyzer audits everything statically reachable from it.
package megasim

import "fmt"

type event struct {
	at  int64
	fn  func()
	arg int
}

type logger interface {
	Log(v any)
}

type shard struct {
	heap    []event
	scratch []int
	out     logger
	spill   arena[int]
}

// runWindow is the configured hot root; step and emit are reachable
// through static calls.
func (s *shard) runWindow(end int64) {
	for len(s.heap) > 0 && s.heap[0].at < end {
		ev := s.pop()
		if s.validate(ev) == nil {
			s.step(ev)
		}
	}
}

func (s *shard) pop() event {
	ev := s.heap[0]
	s.heap = s.heap[:len(s.heap)-1]
	return ev
}

// step shows all three audited allocation shapes.
func (s *shard) step(ev event) {
	cancel := func() { ev.fn = nil } // want `function literal in hot path \(\(\*shard\)\.step\)`
	_ = cancel

	s.scratch = append(s.scratch, ev.arg) // want `append in hot path \(\(\*shard\)\.step\)`

	//lint:pooled scratch capacity persists for the shard's lifetime
	s.scratch = append(s.scratch, ev.arg) // annotated: fine

	s.out.Log(ev.arg) // want `argument boxes int into any in hot path \(\(\*shard\)\.step\)`

	s.out.Log(&ev) // pointer-shaped values box without allocating: fine

	//lint:boxed the boxed value is the record the logger keeps
	s.out.Log(ev.arg) // annotated: fine

	s.emit(any(ev.arg)) // want `conversion to any boxes a concrete value in hot path \(\(\*shard\)\.step\)`

	// Generic callees are audited like any other: a method of an
	// instantiated type, and functions instantiated explicitly.
	s.spill.put(ev.arg)
	s.scratch = grow[int](s.scratch, ev.arg)
	s.scratch = move[[]int, int](s.scratch, ev.arg)

	if ev.at < 0 {
		// Cold paths stay exempt: panic arguments never run per event.
		panic(fmt.Sprintf("megasim: event at %d before shard clock", ev.at))
	}
}

func (s *shard) emit(v any) {
	if s.out != nil {
		s.out.Log(v) // v is already an interface: fine
	}
}

// validate is reachable and boxes only inside return statements: error
// construction on validation exits is cold.
func (s *shard) validate(ev event) error {
	if ev.at < 0 {
		return fmt.Errorf("megasim: bad event time %d", ev.at)
	}
	return nil
}

// setup is NOT reachable from runWindow: construction-time closures and
// appends are free.
func (s *shard) setup(n int) {
	for i := 0; i < n; i++ {
		i := i
		s.heap = append(s.heap, event{fn: func() { _ = i }})
	}
}

// sched puts an interface in front of the queue: interface dispatch ends
// the static walk, so a queue reached only through it is audited only
// because its methods are configured as roots of their own (below).
type sched interface {
	push(ev *event)
	pop() event
}

// dispatch calls through the interface; nothing in the queue bodies is
// reachable from here, so this function stays clean even though the
// queues contain flagged sites.
func (s *shard) dispatch(q sched, ev *event) {
	q.push(ev)
	_ = q.pop()
}

// radixQueue is the fixture twin of the real event queue: its push and
// pop are configured hot roots, so the bucket appends are audited
// directly rather than through the shard.
type radixQueue struct {
	bucket   []event
	overflow []event
}

func (q *radixQueue) push(ev *event) {
	q.bucket = append(q.bucket, *ev) // want `append in hot path \(\(\*radixQueue\)\.push\)`

	//lint:pooled bucket backings persist for the queue's lifetime; growth amortizes
	q.bucket = append(q.bucket, *ev) // annotated: fine
}

func (q *radixQueue) pop() event {
	ev := q.bucket[0]
	q.bucket = q.bucket[1:]
	if len(q.bucket) == 0 {
		q.rebuild() // reachable from the pop root: rebuild is audited too
	}
	return ev
}

func (q *radixQueue) rebuild() {
	q.overflow = append(q.overflow, q.bucket...) // want `append in hot path \(\(\*radixQueue\)\.rebuild\)`
}

// stats has a value receiver: its reach-index name is "stats.observe",
// distinct from the pointer-receiver forms above. Not a root, so the
// closure inside is free.
type stats struct{ n int }

func (c stats) observe(fn func()) {
	defer func() { _ = c.n }()
	fn()
}

// ring is generic; the reach index strips the type parameter from the
// receiver ("ring.head").
type ring[T any] struct{ buf []T }

func (r ring[T]) head() T { return r.buf[0] }

// arena is generic like the engine's spill arenas; step reaches put
// through arena[int].
type arena[T any] struct{ buf []T }

func (a *arena[T]) put(v T) {
	a.buf = append(a.buf, v) // want `append in hot path \(\(\*arena\)\.put\)`

	//lint:pooled the arena recycles what it carves
	a.buf = append(a.buf, v) // annotated: fine
}

func grow[T any](s []T, v T) []T {
	return append(s, v) // want `append in hot path \(grow\)`
}

func move[S ~[]E, E any](s S, v E) S {
	return append(s, v) // want `append in hot path \(move\)`
}
