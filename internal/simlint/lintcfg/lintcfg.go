// Package lintcfg is the shared configuration layer of the simlint suite:
// it classifies packages by their determinism obligations and names the
// hot-path entry points whose call closures the hotalloc analyzer audits.
//
// Classification is by import-path segment so the same rules govern both
// the real tree (gossipstream/internal/megasim) and analyzer fixture
// packages (testdata/src/megasim): a package is judged by what it is, not
// where the source happens to live.
package lintcfg

import "strings"

// Class is a package's determinism obligation.
type Class int

const (
	// Unclassified packages are outside the suite's contract; analyzers
	// skip them. Promote a package by adding its segment to a Config list.
	Unclassified Class = iota
	// Deterministic packages must produce bit-identical fixed-(seed,
	// shards) replays: no map-order dependence, no wall clock, no global
	// or shared RNG streams.
	Deterministic
	// Kernel packages are Deterministic and additionally sit on the
	// per-event/per-byte hot path, where allocation discipline is audited.
	Kernel
	// WallClockOK packages are the process edge (real-time runtime,
	// command-line mains): wall clocks and OS randomness are their job.
	WallClockOK
)

// String names the class for diagnostics and driver output.
func (c Class) String() string {
	switch c {
	case Deterministic:
		return "deterministic"
	case Kernel:
		return "kernel"
	case WallClockOK:
		return "wall-clock-ok"
	default:
		return "unclassified"
	}
}

// Config is the package classification and hot-root table the analyzers
// share. The zero value classifies nothing; use Default for the
// repository's contract.
type Config struct {
	// Deterministic, Kernel, and WallClockOK hold import-path segments;
	// a package whose path contains a listed segment takes that class.
	// WallClockOK wins over Kernel wins over Deterministic, so e.g.
	// internal/rt stays exempt even if a broader segment also matched.
	Deterministic []string
	Kernel        []string
	WallClockOK   []string

	// HotRoots maps a package segment to the functions that enter the
	// per-event path there, named as they are declared: "Func" for
	// package functions, "(*Type).Method" or "Type.Method" for methods.
	// hotalloc audits everything statically reachable from these within
	// the package.
	HotRoots map[string][]string

	// XRandPath is the import path of the blessed compact-RNG package;
	// rngstream requires every RNG stream in Deterministic and Kernel
	// packages to be seeded from it.
	XRandPath string
}

// Default returns the repository's contract: the packages whose state
// feeds fixed-seed replay are deterministic, the GF(256)/FEC kernels and
// the sharded engine's dispatch loop are hot, and only the real-time
// runtime and the command mains may touch the wall clock.
func Default() *Config {
	return &Config{
		Deterministic: []string{"megasim", "core", "pss", "experiment", "churn", "stream", "wire", "telemetry", "slab"},
		Kernel:        []string{"gf256", "fec"},
		// teleclock is telemetry's wall-clock edge: it mints the injected
		// clock and progress printers, and must outrank its parent
		// telemetry segment.
		WallClockOK: []string{"rt", "cmd", "examples", "teleclock"},
		HotRoots: map[string][]string{
			// The shard loop executes every simulated event; mergeInbound
			// queues every cross-shard delivery sent inside a window. The queue's
			// methods are listed as their own roots: peekAt is also reached
			// from the supervisor's next-event scan between windows, outside
			// runWindow's walk, and listing all three keeps the queue audited
			// whoever calls it.
			"megasim": {
				"(*shard).runWindow", "(*shard).mergeInbound",
				"(*radixQueue).push", "(*radixQueue).pop", "(*radixQueue).peekAt",
				// The arena-recycling paths: Crash runs per departure
				// (10k/s at 1%/s churn on a million nodes) and the free
				// ring's reads run per admission. The handle-decode
				// checks on the event path are already reachable from
				// runWindow; these roots pin the ring to reused capacity
				// and flat slot arithmetic.
				"(*Engine).Crash", "(*Engine).nextFree", "(*Engine).takeFree",
				// The LEAVE fan-out path: a graceful departure emits one
				// SendFrom per view entry at its barrier (view-size × 10k/s
				// at 1%/s graceful churn on a million nodes), entering the
				// same send machinery runWindow reaches per event.
				"(*Engine).SendFrom",
				// The typed sends: node logic calls them through the
				// core.TimerEnv interface, once per PROPOSE, REQUEST and SERVE
				// — most of a run's events — and they copy into the message
				// slab or an outbox record.
				"(*NodeEnv).SendIDs", "(*NodeEnv).SendServe",
				// Where a send's message is stored, once per fan-out per
				// destination shard: the event a delivery takes, the compare
				// that lets a fan-out's sends reuse the record filled last,
				// the slab's and an outbox's stores, and the merge's copy of
				// an outbox record into the slab.
				"delivery", "(*msgRec).reuse",
				"(*shard).store", "(*shard).newRec",
				"(*outbox).push", "(*outbox).store", "(*shard).adopt",
			},
			// The chunked store behind the message slab, the spill pool and
			// the request and batch slabs: the engine and the handlers reach
			// it per event, and only a chunk may be allocated there.
			"slab": {
				"(*Table).At", "(*Table).Push", "(*Table).Pop", "(*Table).Extend",
				"(*Pool).Get", "(*Pool).Put", "(*Pool).Grow", "(*Pool).Block",
			},
			// The SERVE batch split runs once per request served, and every
			// SERVE is recycled once — millions of times per simulated minute
			// at scale.
			"wire": {"SplitServeInto", "RecycleServe"},
			// The protocol handlers run once per delivered message and once
			// per timer. The engines reach them through the Handler and
			// TimerHandler interfaces (or a closure), which ends the static
			// walk from the shard loop, so they are roots of their own —
			// the boxed entry point and the typed ones alike; retransmit is
			// named as well as OnTimer so that it stays audited however the
			// timer entry reaches it. The peer sends and arms through the
			// TimerEnv interface, so the adapter that boxes them over a
			// plain Env is named too.
			"core": {
				"(*Peer).HandleMessage", "(*Peer).HandleIDs",
				"(*Peer).OnTimer", "(*Peer).retransmit",
				"(*boxedEnv).AfterTimer", "(*boxedEnv).SendIDs", "(*boxedEnv).SendServe",
			},
			// A Cyclon round per node per period and a partner draw per
			// gossip round, reached only through the member interfaces.
			"pss":    {"(*State).Tick", "(*State).Handle", "(*State).SampleInto"},
			"member": {"(*View).Partners"},
			// The vector kernels run per byte of every encoded window.
			"gf256": {"MulSlice", "MulAddSlices", "ScaleSlice"},
			// The zero-allocation encode/decode entry points.
			"fec": {"(*Code).EncodeInto", "(*Code).ReconstructInto"},
			// The streaming fold path: Observe runs per window per node as
			// lifetimes close, Add/Merge at barrier reduction — all must
			// stay flat counter arithmetic.
			"telemetry": {"(*Hist).Observe", "(*LagAccum).Observe", "(*Hist).Add", "(*LagAccum).Merge"},
		},
		XRandPath: "gossipstream/internal/xrand",
	}
}

// Classify returns the class of the package with the given import path.
func (c *Config) Classify(pkgPath string) Class {
	segs := strings.Split(pkgPath, "/")
	if matchAny(segs, c.WallClockOK) {
		return WallClockOK
	}
	if matchAny(segs, c.Kernel) {
		return Kernel
	}
	if matchAny(segs, c.Deterministic) {
		return Deterministic
	}
	return Unclassified
}

// Roots returns the hot-path entry points configured for the package, or
// nil if none of its segments name any.
func (c *Config) Roots(pkgPath string) []string {
	for _, seg := range strings.Split(pkgPath, "/") {
		if rs := c.HotRoots[seg]; len(rs) > 0 {
			return rs
		}
	}
	return nil
}

func matchAny(segs, list []string) bool {
	for _, s := range segs {
		for _, l := range list {
			if s == l {
				return true
			}
		}
	}
	return false
}
