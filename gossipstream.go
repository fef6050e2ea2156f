// Package gossipstream is a faithful, deployable reproduction of the
// gossip-based live streaming system studied in "Stretching Gossip with
// Live Streaming" (Frey, Guerraoui, Kermarrec, Monod, Quéma — DSN 2009).
//
// The library has three layers:
//
//   - The protocol engine (internal/core): the paper's three-phase
//     push-request-push gossip (Algorithm 1) with infect-and-die proposal,
//     receiver-driven retransmission, FEC-protected stream windows, and the
//     two proactiveness knobs X (view refresh rate) and Y (feed-me rate).
//   - A deterministic testbed simulator that stands in for the paper's
//     230 PlanetLab nodes: capped, queued uplinks with drop-tail
//     throttling, heterogeneous wide-area latencies, and ambient UDP loss
//     (the network model, internal/simnet), executed by one discrete-event
//     engine (internal/megasim). The paper's own runs use one shard,
//     inline on the calling goroutine; for internet-scale experiments
//     ExperimentConfig.Shards (or ScaledExperiment) spreads 100k+ nodes
//     across per-core shards of the same engine.
//   - A real-time UDP driver (internal/rt) that runs the same engine over
//     actual sockets.
//
// This root package is the public face: it re-exports the configuration
// and result types, the experiment runner, and one generator per figure of
// the paper's evaluation. RunFlags is the command-line front end the tools
// share: one flag set for the run options, one telemetry wiring, and one
// manifest writer. See README.md for build and run instructions and the
// examples/ directory for runnable programs.
package gossipstream

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"gossipstream/internal/churn"
	"gossipstream/internal/core"
	"gossipstream/internal/experiment"
	"gossipstream/internal/member"
	"gossipstream/internal/metrics"
	"gossipstream/internal/pss"
	"gossipstream/internal/rt"
	"gossipstream/internal/shaping"
	"gossipstream/internal/simnet"
	"gossipstream/internal/stream"
	"gossipstream/internal/telemetry"
	"gossipstream/internal/telemetry/teleclock"
	"gossipstream/internal/wire"
)

// Re-exported identity and configuration types.
type (
	// NodeID identifies a protocol participant.
	NodeID = wire.NodeID
	// ProtocolConfig carries the gossip knobs: fanout, period, X, Y,
	// retransmission.
	ProtocolConfig = core.Config
	// RetryPolicy selects the retransmission target policy.
	RetryPolicy = core.RetryPolicy
	// StreamLayout describes the stream geometry: rate, window shape,
	// length.
	StreamLayout = stream.Layout
	// ExperimentConfig describes one simulated deployment.
	ExperimentConfig = experiment.Config
	// PSSConfig parameterizes the Cyclon partial-view membership substrate
	// (ExperimentConfig.PSS): view size, shuffle length, shuffle period.
	// The zero value resolves to DefaultPSSConfig.
	PSSConfig = pss.Config
	// ExperimentResult is the outcome of a simulated deployment. Its
	// scores come from one fold taken as node lifetimes close, at the lags
	// of LagProbes; Nodes is the per-node detail beside it.
	ExperimentResult = experiment.Result
	// NodeResult is one node's outcome within an ExperimentResult
	// (ExperimentResult.Nodes; not retained under
	// ExperimentConfig.StreamingMetrics).
	NodeResult = experiment.NodeResult
	// NetStats holds a node's traffic and drop counters (NodeResult.Stats):
	// per-kind sent/received messages and bytes plus the three loss modes
	// (congestion, random UDP loss, crashed endpoints).
	NetStats = simnet.Stats
	// FigureOptions scales and parameterizes figure generation.
	FigureOptions = experiment.Options
	// Quality holds a node's per-window stream lags.
	Quality = metrics.Quality
	// Table is a printable result table, one per figure.
	Table = metrics.Table
	// ChurnEvent is one catastrophic failure burst.
	ChurnEvent = churn.Event
	// ChurnProcess describes sustained churn: Poisson join/leave streams
	// expanded into a deterministic timeline (ExperimentConfig.ChurnProcess).
	ChurnProcess = churn.Process
	// ChurnClaimResult quantifies the paper's §1 churn claim.
	ChurnClaimResult = experiment.ChurnClaimResult
	// LiveNode is a protocol participant on a real UDP socket.
	LiveNode = rt.Node
	// LiveConfig configures a LiveNode.
	LiveConfig = rt.Config
	// LiveCluster is a localhost cluster of live nodes.
	LiveCluster = rt.Cluster

	// TelemetryOptions enables run introspection
	// (ExperimentConfig.Telemetry): periodic progress snapshots and
	// supervisor wall-clock profiling, guaranteed not to perturb the run.
	TelemetryOptions = experiment.TelemetryOptions
	// RunManifest is the structured run description the -telemetry flag
	// of the CLI tools emits (ExperimentResult.Manifest).
	RunManifest = experiment.Manifest
	// RunSnapshot is one progress point of a run (live node count, events
	// executed, events pending at a simulated instant).
	RunSnapshot = telemetry.Snapshot
	// ShardLoad is one shard's load counters: events by kind, conservative
	// windows run, heap high-water, and cross-shard outbox volume
	// (ExperimentResult.ShardLoads).
	ShardLoad = telemetry.ShardLoad
	// WallProfile is the wall-time split of a run, with each shard's busy
	// time (ExperimentResult.Wall); zero unless TelemetryOptions.Clock is
	// set, and excluded from determinism guarantees.
	WallProfile = telemetry.WallProfile
	// HistSummary digests a telemetry histogram: count, extremes, mean
	// and quantiles (ExperimentResult.UploadSummary).
	HistSummary = telemetry.HistSummary
)

// NewWallClock returns a wall-clock sampler for TelemetryOptions.Clock.
// It is the only sanctioned way real time enters a simulation, and it
// only ever fills WallProfile — simulated state never observes it.
func NewWallClock() func() int64 { return teleclock.Clock() }

// Never disables a proactiveness knob: RefreshEvery = Never is the paper's
// X = ∞ (static partners); FeedEvery = Never disables feed-me requests.
const Never = member.Never

// Unlimited disables a bandwidth cap.
const Unlimited = shaping.Unlimited

// Retry policies (see core.RetryPolicy).
const (
	RetrySameProposer   = core.RetrySameProposer
	RetryRandomProposer = core.RetryRandomProposer
)

// Membership substrates for simulated experiments.
const (
	// MembershipFull is the paper's model: uniform sampling over global
	// membership knowledge.
	MembershipFull = experiment.MembershipFull
	// MembershipCyclon samples from Cyclon-style partial views whose
	// shuffle traffic shares the capped uplinks.
	MembershipCyclon = experiment.MembershipCyclon
)

// Membership selects the partner-sampling substrate of a simulated
// deployment (ExperimentConfig.Membership).
type Membership = experiment.Membership

// OfflineLag selects offline viewing (no deadline) in quality queries.
const OfflineLag = metrics.InfiniteLag

// JitterThreshold is the paper's quality bar: at most 1% jittered windows.
const JitterThreshold = metrics.DefaultJitterThreshold

// LagProbes returns the lags an ExperimentResult's score accessors
// (Scored*, Survivor*, Present*, ClassMeanCompletePct) answer at: twelve
// finite lags from 1 s to 150 s — Figure 2's axis, which includes the 10 s
// and 20 s of the other figures — and OfflineLag. A run keeps one count per
// probe and node, so the accessors panic on any other lag; score those
// from the per-node rows (ExperimentResult.SurvivorQualities or
// LifetimeQualities with PercentViewable / MeanCompleteFraction), which a
// run retains unless ExperimentConfig.StreamingMetrics is set.
func LagProbes() []time.Duration { return slices.Clone(telemetry.LagProbes) }

// DefaultProtocol returns the paper's streaming configuration: fanout 7,
// 200 ms gossip period, X = 1, Y = ∞.
func DefaultProtocol() ProtocolConfig { return core.DefaultConfig() }

// DefaultPSSConfig returns the conventional Cyclon parameterization used
// when MembershipCyclon is selected with a zero ExperimentConfig.PSS:
// 20-entry views, 8-descriptor shuffles, 1 s period.
func DefaultPSSConfig() PSSConfig { return pss.DefaultConfig() }

// DefaultLayout returns the paper's stream: 600 kbps in windows of 101 data
// plus 9 FEC packets, for the given number of windows.
func DefaultLayout(windows int) StreamLayout { return stream.DefaultLayout(windows) }

// DefaultExperiment returns the paper's baseline deployment: 230 nodes with
// 700 kbps upload caps streaming ≈212 s.
func DefaultExperiment() ExperimentConfig { return experiment.Defaults() }

// ScaledExperiment returns the baseline deployment scaled to large systems:
// nodes participants spread over the given number of parallel shards
// (normally runtime.GOMAXPROCS(0); 0 means the default, one), streaming
// for approximately simFor of virtual time (stream plus drain). Every
// other knob — protocol, stream rate, caps, network model — stays at the
// paper's baseline, so results compare directly against the 230-node
// figures.
func ScaledExperiment(nodes, shards int, simFor time.Duration) ExperimentConfig {
	cfg := experiment.Defaults()
	cfg.Nodes = nodes
	if shards > nodes {
		shards = nodes // more shards than nodes would leave shards empty
	}
	cfg.Shards = shards
	// Fit as many whole windows as leave ≥ 20% of the budget for drain,
	// with at least one window.
	windowTime := cfg.Layout.Duration() / time.Duration(cfg.Layout.Windows)
	windows := int(float64(simFor) * 0.8 / float64(windowTime))
	if windows < 1 {
		windows = 1
	}
	cfg.Layout.Windows = windows
	cfg.Drain = simFor - cfg.Layout.Duration()
	if cfg.Drain < 0 {
		cfg.Drain = 0
	}
	return cfg
}

// RunExperiment executes one simulated deployment.
func RunExperiment(cfg ExperimentConfig) (*ExperimentResult, error) {
	return experiment.Run(cfg)
}

// RunExperiments executes several deployments in parallel, preserving
// order.
func RunExperiments(cfgs []ExperimentConfig) ([]*ExperimentResult, error) {
	return experiment.RunMany(cfgs)
}

// Catastrophe returns a churn schedule failing fraction of the nodes
// simultaneously at the given time.
func Catastrophe(at time.Duration, fraction float64) []ChurnEvent {
	return churn.Catastrophic(at, fraction)
}

// SustainedChurn returns a churn process with Poisson join and leave
// streams at the given rates (expected events per simulated second).
// Assign it to ExperimentConfig.ChurnProcess; when joins are enabled it
// needs MembershipCyclon — joining nodes bootstrap into partial views at
// runtime, which no static sampler can express.
func SustainedChurn(joinPerSec, leavePerSec float64) *ChurnProcess {
	p := churn.SustainedPoisson(joinPerSec, leavePerSec)
	return &p
}

// GracefulChurn is SustainedChurn with graceful departures: each leaving
// node announces its exit (a LEAVE to every peer in its view) before
// going silent, so live views shed its descriptor immediately instead of
// waiting out detection. The departure instants and victims are drawn
// from the same streams as SustainedChurn's, so a graceful run and a
// crash-leave run at the same seed and rates remove identical nodes at
// identical times — comparing the two isolates the cost of detection lag
// from unavoidable loss. Requires MembershipCyclon.
func GracefulChurn(joinPerSec, leavePerSec float64) *ChurnProcess {
	p := churn.SustainedPoisson(joinPerSec, leavePerSec)
	p.GracefulLeaves = true
	return &p
}

// FlashCrowdChurn returns a churn process admitting joiners extra nodes
// spread evenly over the span starting at the given time — the flash
// crowd scenario, exercising runtime admission, Cyclon bootstrap, and
// uplink contention all at once. Requires MembershipCyclon, like any
// joining process.
func FlashCrowdChurn(at time.Duration, joiners int, over time.Duration) *ChurnProcess {
	return &churn.Process{Flash: []churn.FlashCrowd{{At: at, Joiners: joiners, Over: over}}}
}

// ApplyChurnFlag interprets the -churn CLI spelling of RunFlags, mutating
// cfg:
//
//   - "" or "0": no churn;
//   - a fraction in (0, 1]: one catastrophic burst failing that share of
//     the nodes mid-stream (the paper's §4.3 scenario);
//   - "poisson:<join>,<leave>": sustained churn, where each rate is the
//     fraction of the configured population joining/leaving per simulated
//     second (so "poisson:0.01,0.01" turns over ≈1% of cfg.Nodes every
//     second);
//   - "graceful:<join>,<leave>": the same sustained process with graceful
//     departures — each leaver announces its exit before going silent
//     (GracefulChurn). Same streams, same victims, same instants as the
//     poisson spelling at the same seed, so the two are direct twins;
//   - "flash:<mult>,<secs>[,<start-secs>]": a flash crowd — the population
//     grows to mult× its configured size, the (mult-1)·Nodes joiners
//     spread evenly over secs seconds, starting at start-secs (default: a
//     quarter into the stream).
//
// Callers must set cfg.Nodes and cfg.Layout before applying the flag: the
// Poisson rates and the crowd size scale with the population, and the
// burst and flash instants are fractions of the stream.
func ApplyChurnFlag(cfg *ExperimentConfig, spec string) error {
	if spec == "" || spec == "0" {
		return nil
	}
	if rest, ok := strings.CutPrefix(spec, "poisson:"); ok {
		rates, err := parseChurnRates(spec, rest, "poisson:<join>,<leave>")
		if err != nil {
			return err
		}
		n := float64(cfg.Nodes)
		cfg.ChurnProcess = SustainedChurn(rates[0]*n, rates[1]*n)
		return nil
	}
	if rest, ok := strings.CutPrefix(spec, "graceful:"); ok {
		rates, err := parseChurnRates(spec, rest, "graceful:<join>,<leave>")
		if err != nil {
			return err
		}
		n := float64(cfg.Nodes)
		cfg.ChurnProcess = GracefulChurn(rates[0]*n, rates[1]*n)
		return nil
	}
	if rest, ok := strings.CutPrefix(spec, "flash:"); ok {
		parts := strings.Split(rest, ",")
		if len(parts) != 2 && len(parts) != 3 {
			return fmt.Errorf("churn %q: want flash:<mult>,<secs>[,<start-secs>]", spec)
		}
		mult, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil || math.IsNaN(mult) || mult < 1 {
			return fmt.Errorf("churn %q: multiplier %q: want a population multiple >= 1", spec, parts[0])
		}
		span, err := parseSeconds(spec, "span", parts[1])
		if err != nil {
			return err
		}
		start := cfg.Layout.Duration() / 4
		if len(parts) == 3 {
			if start, err = parseSeconds(spec, "start", parts[2]); err != nil {
				return err
			}
		}
		joiners := int(math.Round((mult - 1) * float64(cfg.Nodes)))
		cfg.ChurnProcess = FlashCrowdChurn(start, joiners, span)
		return nil
	}
	frac, err := strconv.ParseFloat(spec, 64)
	if err != nil || math.IsNaN(frac) {
		return fmt.Errorf("churn %q: want a fraction in [0,1] or poisson:<join>,<leave>", spec)
	}
	if frac < 0 || frac > 1 {
		return fmt.Errorf("churn %v: want a fraction in [0,1]", frac)
	}
	if frac > 0 {
		cfg.Churn = Catastrophe(cfg.Layout.Duration()/2, frac)
	}
	return nil
}

// parseSeconds parses the field of a flash: spec named what — a span or a
// start — as seconds from zero up to the longest time.Duration (≈292
// years), which is what converts to one without overflow.
func parseSeconds(spec, what, field string) (time.Duration, error) {
	s, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
	if err != nil || math.IsNaN(s) || s < 0 {
		return 0, fmt.Errorf("churn %q: %s %q: want seconds >= 0", spec, what, field)
	}
	ns := s * float64(time.Second)
	if ns >= math.MaxInt64 {
		return 0, fmt.Errorf("churn %q: %s %q: want at most %.4g seconds, the longest duration", spec, what, field, math.MaxInt64/float64(time.Second))
	}
	return time.Duration(ns), nil
}

// parseChurnRates parses the "<join>,<leave>" tail shared by the poisson
// and graceful churn spellings: two per-second population fractions.
func parseChurnRates(spec, rest, grammar string) ([2]float64, error) {
	var rates [2]float64
	parts := strings.Split(rest, ",")
	if len(parts) != 2 {
		return rates, fmt.Errorf("churn %q: want %s", spec, grammar)
	}
	for i, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v < 0 || v > 1 || math.IsNaN(v) {
			// The cap catches absolute rates passed where fractions belong:
			// above 1, the whole population would turn over more than once
			// per second.
			return rates, fmt.Errorf("churn %q: rate %q: want a fraction of the population per second, in [0, 1]", spec, part)
		}
		rates[i] = v
	}
	return rates, nil
}

// PercentViewable returns the share of nodes viewing the stream within the
// jitter bar at the given lag — the y-axis of most of the paper's figures.
func PercentViewable(qs []Quality, lag time.Duration, maxJitter float64) float64 {
	return metrics.PercentViewable(qs, lag, maxJitter)
}

// MeanCompleteFraction returns the average percentage of complete windows
// across nodes at the given lag — the y-axis of Figure 8.
func MeanCompleteFraction(qs []Quality, lag time.Duration) float64 {
	return metrics.MeanCompleteFraction(qs, lag)
}

// Figure generators — one per table/figure of the paper's evaluation.
// Passing zero-valued option slices selects the paper's parameters.

// Figure1 sweeps fanout at 700 kbps caps (paper Fig. 1).
func Figure1(opts FigureOptions, fanouts []int) (*Table, []*ExperimentResult, error) {
	return experiment.Figure1(opts, fanouts)
}

// Figure2 derives the stream-lag CDF per fanout (paper Fig. 2), reusing
// Figure1 results when given.
func Figure2(opts FigureOptions, fanouts []int, results []*ExperimentResult) (*Table, error) {
	return experiment.Figure2(opts, fanouts, results)
}

// Figure3 sweeps fanout at 1000/2000 kbps caps (paper Fig. 3).
func Figure3(opts FigureOptions, fanouts []int, capsBps []int64) (*Table, error) {
	return experiment.Figure3(opts, fanouts, capsBps)
}

// Figure4Combo selects one line of Figure 4.
type Figure4Combo = experiment.Figure4Combo

// Figure4 reports the sorted per-node upload distribution (paper Fig. 4).
func Figure4(opts FigureOptions, combos []Figure4Combo) (*Table, error) {
	return experiment.Figure4(opts, combos)
}

// Figure5 sweeps the view refresh rate X (paper Fig. 5).
func Figure5(opts FigureOptions, rates []int) (*Table, error) {
	return experiment.Figure5(opts, rates)
}

// Figure6 sweeps the feed-me rate Y with static views (paper Fig. 6).
func Figure6(opts FigureOptions, rates []int) (*Table, error) {
	return experiment.Figure6(opts, rates)
}

// Figure7 sweeps catastrophic churn against X (paper Fig. 7).
func Figure7(opts FigureOptions, churns []float64, refreshes []int) (*Table, []*ExperimentResult, error) {
	return experiment.Figure7(opts, churns, refreshes)
}

// Figure8 reports mean complete windows over the churn grid (paper Fig. 8),
// reusing Figure7 results when given.
func Figure8(opts FigureOptions, churns []float64, refreshes []int, results []*ExperimentResult) (*Table, error) {
	return experiment.Figure8(opts, churns, refreshes, results)
}

// ChurnClaim evaluates the paper's §1 claim (20% churn, X=1: most nodes
// unaffected, short outages around the event).
func ChurnClaim(opts FigureOptions) (ChurnClaimResult, error) {
	return experiment.ChurnClaim(opts)
}

// NewLiveCluster builds a localhost UDP cluster of n nodes gossiping the
// given stream, node 0 acting as the source.
func NewLiveCluster(n int, protocol ProtocolConfig, layout StreamLayout, capBps int64, seed int64) (*LiveCluster, error) {
	return rt.NewCluster(n, protocol, layout, capBps, seed)
}

// EvaluateLive computes a live node's stream quality.
func EvaluateLive(n *LiveNode, layout StreamLayout) Quality {
	return metrics.Evaluate(n.Receiver(), layout)
}

// ChartSeries is one labelled line of an ASCII chart.
type ChartSeries = metrics.Series

// RenderChart renders series as a monospace scatter chart — a quick way to
// eyeball a figure's shape in a terminal.
func RenderChart(title string, width, height int, series []ChartSeries) string {
	return metrics.Chart(title, width, height, series)
}
