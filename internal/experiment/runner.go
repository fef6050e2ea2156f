// Package experiment wires the substrates into complete simulated
// deployments of the paper's streaming system and regenerates every table
// and figure of the evaluation (§4).
//
// A Run builds one "testbed" on the simulation engine (internal/megasim,
// under the network model of internal/simnet): a source node publishing
// the stream and n-1 peers gossiping it (internal/core), optional churn
// (internal/churn), and metric collection (internal/metrics). Figures are
// parameter sweeps over Runs executed in parallel.
//
// A deployment holds every node by value: its peer, random stream and
// sampler in fixed-size chunks per engine shard, the peer's variable-size
// protocol state in its shard's core.Table, its environment in the
// engine's table. A run allocates per shard as these fill, not per node,
// and a node admitted into a departed node's slot rebuilds the slot's
// state in place, allocating nothing (TestJoinAllocBudget).
package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"gossipstream/internal/churn"
	"gossipstream/internal/core"
	"gossipstream/internal/metrics"
	"gossipstream/internal/pss"
	"gossipstream/internal/shaping"
	"gossipstream/internal/simnet"
	"gossipstream/internal/stream"
	"gossipstream/internal/telemetry"
	"gossipstream/internal/wire"
)

// Membership selects the partner-sampling substrate.
type Membership int

const (
	// MembershipFull is the paper's model: selectNodes draws uniformly
	// from global knowledge of all nodes. The zero value resolves to this.
	MembershipFull Membership = iota + 1
	// MembershipCyclon samples from Cyclon-style partial views maintained
	// by internal/pss — the realistic deployment substrate. Its shuffle
	// traffic shares the capped uplinks with the stream.
	MembershipCyclon
)

// String returns the substrate's command-line spelling: "full" (also for
// the zero value, which resolves to it) or "cyclon".
func (m Membership) String() string {
	switch m {
	case 0, MembershipFull:
		return "full"
	case MembershipCyclon:
		return "cyclon"
	}
	return fmt.Sprintf("Membership(%d)", int(m))
}

// Config describes one experiment run. Zero-valued fields are filled by
// Defaults' values where documented.
type Config struct {
	// Nodes is the system size including the source (the paper uses 230).
	Nodes int
	// Seed drives all randomness of the run.
	Seed int64
	// Protocol carries the gossip parameters (fanout, X, Y, ...).
	Protocol core.Config
	// Layout describes the stream (rate, window shape, length).
	Layout stream.Layout
	// UploadCapBps caps each non-source node's upload (700/1000/2000 kbps
	// in the paper). shaping.Unlimited disables the cap.
	UploadCapBps int64
	// UploadCapMix, when non-empty, assigns heterogeneous caps instead:
	// non-source node i gets UploadCapMix[(i-1) % len]. The paper's
	// abstract studies "various upload-bandwidth distributions"; this
	// models mixed populations (e.g. DSL uploaders among fiber nodes).
	UploadCapMix []int64
	// SourceCapBps caps the source's upload. The default (Unlimited)
	// matches the paper's deployment where the source was not the
	// bottleneck: it must sustain ≈ SourceFanout × stream rate.
	SourceCapBps int64
	// QueueBytes bounds each uplink queue (the throttling buffer).
	QueueBytes int64
	// Net controls latency heterogeneity and ambient loss.
	Net simnet.Config
	// Churn lists failure bursts; victims are non-source nodes.
	Churn []churn.Event
	// ChurnProcess, when non-nil and non-zero, runs sustained churn: a
	// deterministic Poisson timeline of joins and leaves over the stream's
	// duration (see churn.Process). Joining nodes are admitted at engine
	// barriers with a Cyclon view bootstrapped from live descriptors;
	// leaving nodes crash. With JoinPerSec > 0 it requires
	// MembershipCyclon: a static full-view sampler can never learn nodes
	// that did not exist at setup.
	ChurnProcess *churn.Process
	// FreeRiders is the fraction of non-source nodes that free-ride: they
	// request and receive the stream but never propose or serve
	// (core.Config.Leech). Riders are spread evenly over the stable node
	// ordinals — setup node i has ordinal i-1, runtime admissions continue
	// the count — so any prefix of k ordinals contains exactly
	// floor(k·FreeRiders) riders and twin replays agree on who rides.
	// Score the classes separately with Result.ClassMeanCompletePct.
	FreeRiders float64
	// Drain is extra simulated time after the stream ends, letting
	// throttled queues flush (offline viewing needs it).
	Drain time.Duration
	// Membership selects full-view (paper) or Cyclon partial-view
	// sampling; the zero value is MembershipFull.
	Membership Membership
	// PSS parameterizes the Cyclon substrate when MembershipCyclon is
	// selected; the zero value uses pss.DefaultConfig.
	PSS pss.Config
	// Shards is the number of parallel shards the engine (internal/megasim)
	// spreads the deployment over. 0 means the default, one shard, which
	// runs inline on the calling goroutine — every paper-scale figure runs
	// this way; higher counts are the scale path for 10k–100k+ node
	// deployments. Run normalizes 0 to 1 (and clamps counts above Nodes)
	// before recording the config, so Result.Config.Shards names what ran.
	// The shard count changes only how fast a run goes: a Result is a
	// function of the rest of the config, Seed included, except for what
	// records the count — Config.Shards, ShardLoads and Wall.
	Shards int
	// Queue is reserved and must be zero; it is removed with ROADMAP item
	// 7. The engine has one event queue, the radix heap.
	Queue uint8
	// StreamingMetrics retains no per-node rows: Result.Nodes stays empty.
	// Every run scores through the same fold as lifetimes close
	// (Result.Streaming, read by Result.Scored*/Survivor*/Present*/Class*),
	// so the scores are the same object either way; what this drops is the
	// per-node detail view — each node's window lags, counters and traffic —
	// which is the memory unlock for million-node runs: nothing of a node
	// outlives its crash barrier but 60-byte accumulators.
	StreamingMetrics bool
	// Telemetry, when non-nil, enables run introspection (periodic
	// progress snapshots, supervisor wall-clock profiling). It never
	// changes the simulated run — a snapshot is an engine barrier that
	// only observes, and a barrier moves no event — and is never
	// serialized with the config.
	Telemetry *TelemetryOptions `json:"-"`
}

// TelemetryOptions configures run introspection (Config.Telemetry). The
// snapshot hook runs in an engine barrier, on the goroutine calling Run;
// the clock is also read by every shard goroutine.
type TelemetryOptions struct {
	// SnapshotEvery is the simulated-time spacing of progress snapshots
	// (Result.Snapshots), taken at each multiple of it up to the run's end,
	// before any churn at the same instant; 0 takes none.
	SnapshotEvery time.Duration
	// Clock, when non-nil, is a wall-clock sampler (teleclock.Clock())
	// injected into the engine; it fills Result.Wall with the
	// run/merge/barrier wall-time split and each shard's busy time. It is
	// sampled only at phase edges, so the simulated run is unaffected, and
	// from every shard goroutine, so it must be safe for concurrent use.
	Clock func() int64 `json:"-"`
	// OnSnapshot, when non-nil, observes each snapshot as it is taken —
	// the live progress line (teleclock.Progress).
	OnSnapshot func(telemetry.Snapshot) `json:"-"`
}

// Defaults returns the paper's baseline configuration: 230 nodes, 600 kbps
// stream, 700 kbps caps, fanout 7, X=1, Y=∞.
func Defaults() Config {
	return Config{
		Nodes:        230,
		Seed:         1,
		Protocol:     core.DefaultConfig(),
		Layout:       stream.DefaultLayout(120), // ≈212 s of stream
		UploadCapBps: 700_000,
		SourceCapBps: shaping.Unlimited,
		QueueBytes:   shaping.DefaultQueueBytes,
		Net:          simnet.DefaultConfig(),
		Drain:        60 * time.Second,
	}
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("experiment: Nodes = %d, want >= 2", c.Nodes)
	}
	if err := c.Protocol.Validate(); err != nil {
		return err
	}
	if err := c.Layout.Validate(); err != nil {
		return err
	}
	if c.UploadCapBps < 0 || c.SourceCapBps < 0 {
		return fmt.Errorf("experiment: negative bandwidth cap")
	}
	for i, capBps := range c.UploadCapMix {
		if capBps < 0 {
			return fmt.Errorf("experiment: UploadCapMix[%d] = %d, want >= 0", i, capBps)
		}
	}
	if c.QueueBytes <= 0 && c.UploadCapBps != shaping.Unlimited {
		return fmt.Errorf("experiment: QueueBytes = %d with capped uplinks", c.QueueBytes)
	}
	if c.Drain < 0 {
		return fmt.Errorf("experiment: negative drain %v", c.Drain)
	}
	for _, e := range c.Churn {
		if err := e.Validate(); err != nil {
			return err
		}
	}
	if c.Shards < 0 {
		return fmt.Errorf("experiment: Shards = %d, want >= 0", c.Shards)
	}
	if c.Queue != 0 {
		return fmt.Errorf("experiment: Queue = %d, want 0 (the calendar queue was removed; the radix heap is the only event queue)", c.Queue)
	}
	if c.Telemetry != nil && c.Telemetry.SnapshotEvery < 0 {
		return fmt.Errorf("experiment: Telemetry.SnapshotEvery = %v, want >= 0", c.Telemetry.SnapshotEvery)
	}
	if p := c.ChurnProcess; p != nil && !p.IsZero() {
		if err := p.Validate(); err != nil {
			return err
		}
		if p.HasJoins() && c.Membership != MembershipCyclon {
			return fmt.Errorf("experiment: ChurnProcess with joins requires MembershipCyclon: a static full-view sampler cannot learn nodes admitted at runtime")
		}
		if p.GracefulLeaves && c.Membership != MembershipCyclon {
			return fmt.Errorf("experiment: ChurnProcess with graceful leaves requires MembershipCyclon: LEAVE announcements shed descriptors from partial views, which a static full-view sampler does not keep")
		}
	}
	if math.IsNaN(c.FreeRiders) || c.FreeRiders < 0 || c.FreeRiders > 1 {
		return fmt.Errorf("experiment: FreeRiders = %v, want in [0, 1]", c.FreeRiders)
	}
	// An unknown substrate must fail loudly here rather than silently
	// falling back to full-view sampling.
	switch c.Membership {
	case 0, MembershipFull:
	case MembershipCyclon:
		if err := c.effectivePSS().Validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("experiment: unknown membership %d, want MembershipFull or MembershipCyclon", c.Membership)
	}
	return nil
}

// BootstrapGrace returns the standard grace for scoring sustained-churn
// runs (Result.LifetimeQualities): five shuffle periods of the run's
// Cyclon parameterization. On the join side that is the time a joining
// node needs to plant its descriptor in enough live views that proposals
// reach it at the steady-state rate; on the leave side it approximates the
// dissemination lag a window needs before departure-truncated windows stop
// dominating (measured at 10k nodes: windows ending within ~2 window
// spans of a departure complete at 0–18%, three spans out at 80%+).
func (c Config) BootstrapGrace() time.Duration {
	return 5 * c.effectivePSS().Period
}

// effectivePSS resolves the Cyclon parameterization a run will use: the
// zero value selects pss.DefaultConfig. Validate and Run resolve through
// this one helper so they can never disagree.
func (c Config) effectivePSS() pss.Config {
	if c.PSS == (pss.Config{}) {
		return pss.DefaultConfig()
	}
	return c.PSS
}

// NodeResult captures one node's outcome. A departed node's result is
// captured at its crash barrier — its receiver
// and sent counters are final there — so Stats carries the dead drops
// accrued up to the crash; traffic that dead-drops against the node
// afterwards still appears in Result.TotalTraffic, which is conserved
// across slot recycling.
type NodeResult struct {
	ID       wire.NodeID
	Survived bool
	// JoinedAt is when the node entered the system: 0 for setup-time nodes,
	// the admission barrier time for nodes joined by a sustained-churn
	// process.
	JoinedAt time.Duration
	// LeftAt is when the node crashed or departed; for nodes alive at the
	// end it is the run's duration.
	LeftAt time.Duration
	// FreeRider marks a node assigned to the leeching service class by
	// Config.FreeRiders: it never proposed or served.
	FreeRider bool
	Quality   metrics.Quality
	// UploadKbps is the node's average upload rate over the whole run
	// duration — the bandwidth-cost convention of Figure 4. For nodes that
	// joined or departed mid-run it understates the in-lifetime rate;
	// divide Stats.TotalSentBytes() by (LeftAt - JoinedAt) for that.
	// (The run-duration divisor is kept deliberately: a lifetime divisor
	// would let a node crashed moments after filling its uplink queue
	// report above its cap, since sent bytes are counted at enqueue.)
	UploadKbps float64
	// BaseLatencyMS is the node's drawn base latency.
	BaseLatencyMS float64
	Counters      core.Counters
	Stats         simnet.Stats
}

// Result is the outcome of one Run. The score, count and upload-summary
// accessors (streaming.go) read Streaming, which Run always sets; a Result
// built by hand from Nodes alone supports the per-node views
// (SurvivorQualities, LifetimeQualities, UploadDistribution) but not those
// accessors.
type Result struct {
	Config   Config
	Duration time.Duration // simulated time executed
	// Nodes is the per-node detail view: one row per non-source node ever
	// present, in lifetime-close order — departed nodes first, in crash
	// order, then survivors in arena-slot order — the order Streaming was
	// folded in, so the metrics reductions over these rows equal the
	// fold's scores float for float. It is not indexed by id (only a
	// churn-free run happens to have node id at index id-1): match entries
	// by ID, not position. Empty under Config.StreamingMetrics.
	Nodes []NodeResult
	// SourceCounters and SourceStats describe node 0, the stream source
	// (its quality is trivially perfect and therefore not in Nodes).
	SourceCounters core.Counters
	SourceStats    simnet.Stats
	// Events is the number of simulator events executed (cost measure).
	Events uint64
	// Streaming is the run's scoring state, folded as lifetimes closed.
	// Non-nil on every Result Run returns, whether or not Nodes was
	// retained beside it.
	Streaming *StreamingResult
	// ShardLoads is the per-shard load table: events by kind, windows,
	// heap high-water, and cross-shard outbox volume per shard.
	ShardLoads []telemetry.ShardLoad
	// TotalTraffic aggregates every node's traffic counters, source
	// included. Unlike the sum over Nodes and SourceStats it also holds
	// what dead-dropped against a departed node after its result was
	// captured, so the conservation identity is exact on it.
	TotalTraffic simnet.Stats
	// ViewInDegree is the in-degree distribution of the final membership
	// overlay — for each node alive at run end, how many live views hold
	// its descriptor. Populated only on Cyclon runs (the full-view
	// substrate has trivial, complete in-degree); deterministic.
	ViewInDegree telemetry.Hist
	// Wall is the supervisor-sampled wall-time split; zero unless
	// Config.Telemetry.Clock was set. Excluded from determinism
	// comparisons — two bit-identical runs disagree here.
	Wall telemetry.WallProfile
	// Snapshots are the periodic progress snapshots taken every
	// Config.Telemetry.SnapshotEvery of simulated time.
	Snapshots []telemetry.Snapshot
}

// StreamingResult is the scoring state of a run: the scoring
// populations, reduced to flat accumulators as lifetimes close (at each
// departure barrier, and at run end for survivors). Every score a Result
// reports is drawn from it; the sets hold accumulators in lifetime-close
// order — departures in crash order, then survivors by arena slot.
type StreamingResult struct {
	// Survivors scores nodes alive at run end over the full stream — the
	// population of Figures 1–3 and 5–8 — added in arena-slot order.
	Survivors telemetry.QualitySet
	// Present scores every node over the windows inside its lifetime
	// shrunk by Config.BootstrapGrace() — Result.LifetimeQualities'
	// population. Nodes with no eligible window are omitted.
	Present telemetry.QualitySet
	// Riders and Cooperators split Present by service class
	// (Config.FreeRiders): leeching nodes versus everyone else. Riders is
	// empty when no free-riders were configured.
	Riders      telemetry.QualitySet
	Cooperators telemetry.QualitySet
	// Nodes/Joined/Departed count all non-source nodes ever present, the
	// runtime-admitted subset, and the departed subset.
	Nodes    int
	Joined   int
	Departed int
	// Upload is the distribution of per-node mean upload rates in kbps
	// (Figure 4's curve, as a histogram).
	Upload telemetry.Hist
}

// SurvivorQualities returns the qualities of nodes alive at the end — the
// population of Figures 1–3 and 5–8.
func (r *Result) SurvivorQualities() []metrics.Quality {
	out := make([]metrics.Quality, 0, len(r.Nodes))
	for _, n := range r.Nodes {
		if n.Survived {
			out = append(out, n.Quality)
		}
	}
	return out
}

// LifetimeQualities returns one Quality per non-source node, restricted to
// the windows fully contained in the node's lifetime shrunk by grace on
// both ends — the population of sustained-churn quality reports, where
// "complete windows" is only meaningful for windows a node was around
// for. A window counts for a node when its publish span lies inside
// [JoinedAt+grace, LeftAt-grace]; on the join side grace is a bootstrap
// allowance (a node admitted at runtime needs a few shuffle periods before
// live views hold its descriptor and proposals start flowing), on the
// leave side a delivery allowance (a window published moments before a
// departure was still propagating — gossip dissemination lags the publish
// by a few seconds — so its incompleteness measures the departure, not the
// protocol). Neither side applies to the nodes that did not join or leave.
// Nodes with no eligible window — joined too late, or dead too early —
// are omitted. With no churn at all, LifetimeQualities(grace) equals
// SurvivorQualities.
func (r *Result) LifetimeQualities(grace time.Duration) []metrics.Quality {
	out := make([]metrics.Quality, 0, len(r.Nodes))
	for i := range r.Nodes {
		n := &r.Nodes[i]
		lo, hi := lifetimeWindows(r.Config.Layout, n.JoinedAt, n.LeftAt, n.Survived, grace)
		if lo == hi {
			continue
		}
		lags := make([]time.Duration, 0, hi-lo)
		for w := lo; w < hi; w++ {
			lag, ok := n.Quality.WindowLag(w)
			if !ok {
				lag = metrics.NeverCompleted
			}
			lags = append(lags, lag)
		}
		out = append(out, metrics.QualityFromLags(lags))
	}
	return out
}

// UploadDistribution returns every node's average upload rate in kbps,
// sorted descending — Figure 4's curve.
func (r *Result) UploadDistribution() []float64 {
	out := make([]float64, 0, len(r.Nodes))
	for _, n := range r.Nodes {
		out = append(out, n.UploadKbps)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

// Run executes one simulated deployment and collects metrics.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return runBehind(cfg, nil)
}

// nodeCap returns node i's upload cap: the source cap for node 0, the
// heterogeneous mix when configured, the uniform cap otherwise.
func nodeCap(cfg Config, i int) int64 {
	switch {
	case i == 0:
		return cfg.SourceCapBps
	case len(cfg.UploadCapMix) > 0:
		return cfg.UploadCapMix[(i-1)%len(cfg.UploadCapMix)]
	default:
		return cfg.UploadCapBps
	}
}

// freeRider reports whether the node with the given stable ordinal (setup
// node i has ordinal i-1; runtime admissions continue the count) leeches
// under Config.FreeRiders = frac. The rule — ordinal k rides exactly when
// floor((k+1)·frac) exceeds floor(k·frac) — spreads riders evenly: any
// prefix of k ordinals contains exactly floor(k·frac) riders, so the
// class split is deterministic and independent of churn interleaving.
func freeRider(frac float64, ordinal int) bool {
	if frac <= 0 {
		return false
	}
	return math.Floor(float64(ordinal+1)*frac) > math.Floor(float64(ordinal)*frac)
}

// bootstrapIDs draws, into dst's backing, the k distinct random peers
// that seed a Cyclon view, in ascending order.
func bootstrapIDs(dst []wire.NodeID, self wire.NodeID, n, k int, rng *rand.Rand) []wire.NodeID {
	out := dst[:0]
	for len(out) < k && len(out) < n-1 {
		id := wire.NodeID(rng.Intn(n))
		if id != self && !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// RunMany executes configurations in parallel (bounded by GOMAXPROCS) and
// returns results in input order. The first error aborts the batch.
func RunMany(cfgs []Config) ([]*Result, error) {
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	workers := runtime.GOMAXPROCS(0)
	// The cap bounds a sweep's memory, which grows with the runs in
	// flight. Simulated runs build no packets, so a paper_testbed run
	// peaks at ≈11.5 MB RSS, but a 10k-node × 8 s run takes ≈79 MB of
	// heap from the OS and a 100k-node one ≈673 MB.
	if workers > 8 {
		workers = 8
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results[i], errs[i] = Run(cfgs[i])
			}
		}()
	}
	for i := range cfgs {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
