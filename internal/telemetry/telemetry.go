// Package telemetry provides deterministic, streaming observability for
// the sharded simulation engine: fixed-size log-scale histograms,
// barrier-folded stream-quality accumulators that reproduce the batch
// scoring of internal/metrics bit for bit, and the plain-data load/
// profile/snapshot records the run manifest is assembled from.
//
// The package is a leaf: it imports only the standard library, so the
// engine (internal/megasim) can depend on it without dragging the
// protocol stack into its import graph, and it is marked
// //lint:deterministic — nothing here may touch the wall clock or
// allocate on the per-event path (the fold entry points are marked
// //lint:hot). Wall-clock sampling lives in the telemetry/teleclock
// sub-package, which carries no such mark and is called only at the
// edges of the engine's phases.
//
//lint:deterministic its folds score every simulated run
package telemetry

// ShardLoad is one shard's cumulative load counters, read at a quiescent
// point (setup, a barrier, or after the run). All counts are since the
// start of the run; HeapPeak and Pending describe the event heap.
type ShardLoad struct {
	Shard       int    `json:"shard"`
	Events      uint64 `json:"events"`       // events executed (all kinds)
	Timers      uint64 `json:"timers"`       // evTimer events
	Delivers    uint64 `json:"delivers"`     // evDeliver events
	MemberTicks uint64 `json:"member_ticks"` // evMemberTick events
	// Windows counts the windows the shard ran. A sharded run's windows
	// are conservative, the lookahead long; a one-shard run runs to the
	// horizon in one window, cut only at barriers (churn and, with
	// snapshots on, each snapshot instant), so there it counts those cuts.
	Windows    uint64 `json:"windows"`
	HeapPeak   int    `json:"heap_peak"`   // event-heap high-water mark
	Pending    int    `json:"pending"`     // events still queued
	OutboxOut  uint64 `json:"outbox_out"`  // cross-shard messages sent inside a window, through an outbox
	OutboxIn   uint64 `json:"outbox_in"`   // cross-shard messages merged in from outboxes
	StaleDrops uint64 `json:"stale_drops"` // deliveries to recycled (stale) handles
}

// WallProfile is the wall-time split of a run, in nanoseconds: shard
// execution, cross-shard merge, and barrier-callback time as the
// supervisor sees them, and each shard's own busy time. It is populated
// only when a wall clock was injected (megasim.Engine.SetWallClock) and is
// excluded from determinism comparisons — two bit-identical runs will
// disagree here.
type WallProfile struct {
	RunNS int64 `json:"run_ns"` // inside windows
	// MergeNS is the cross-shard outbox handoff, the phase after every
	// window; a one-shard run records it too, though it has nothing to
	// hand over.
	MergeNS   int64 `json:"merge_ns"`
	BarrierNS int64 `json:"barrier_ns"` // AtBarrier callbacks (churn, folds, snapshots)
	// ShardBusyNS is, per shard, the time it spent executing windows and
	// merges, read at the edges of each phase it ran; the rest of
	// RunNS + MergeNS it spent waiting at the barrier.
	ShardBusyNS []int64 `json:"shard_busy_ns"`
}

// Snapshot is one point of a run's progress, taken in an engine barrier
// at its exact instant. Everything in it derives from simulated state, so
// snapshots are identical across replays and shard counts.
type Snapshot struct {
	AtSeconds float64 `json:"at_seconds"` // simulated time
	Live      int     `json:"live"`       // nodes alive
	Events    uint64  `json:"events"`     // events executed so far
	Pending   int     `json:"pending"`    // events queued across shards
}
