package experiment

import (
	"math"
	"time"

	"gossipstream/internal/simnet"
	"gossipstream/internal/stream"
	"gossipstream/internal/telemetry"
)

// streamFold is the scorer of a run: every run has one, and every score,
// count and upload digest a Result answers comes out of it. A node is
// folded exactly once, at the moment its lifetime closes — its departure
// barrier, or run end for survivors — when its receiver can no longer
// change: a crashed node stops sending, and everything addressed to it
// dead-drops. Accumulators go straight into the QualitySets (no per-node
// state survives the fold, so the scorer's memory is O(1) per closed
// lifetime even when arena slots — and therefore node ids — are recycled
// under churn), in lifetime-close order: departures in crash order, then
// survivors in slot order. The per-node rows a run retains unless
// Config.StreamingMetrics (Result.Nodes) are appended in the same pass and
// so in the same order, which is what lets the twin tests hold the fold to
// the metrics reductions over those rows with exact float equality.
type streamFold struct {
	layout     stream.Layout
	endSeconds float64
	grace      time.Duration
	res        StreamingResult
}

func newStreamFold(cfg Config, end time.Duration) *streamFold {
	return &streamFold{
		layout:     cfg.Layout,
		endSeconds: end.Seconds(),
		grace:      cfg.BootstrapGrace(),
	}
}

// fold closes one node's lifetime.
func (f *streamFold) fold(joinedAt, leftAt time.Duration, survived, rider bool, recv *stream.Receiver, stats simnet.Stats) {
	s := &f.res
	s.Nodes++
	if survived {
		// Only survivors are scored over the full stream
		// (SurvivorQualities), so departed nodes skip the pass.
		s.Survivors.Add(lagAccum(recv, 0, f.layout.Windows))
	} else {
		s.Departed++
	}
	// The lifetime-masked accumulator, Result.LifetimeQualities' windows.
	// Folded for every run shape — Present* queries are valid on burst
	// runs too.
	lo, hi := lifetimeWindows(f.layout, joinedAt, leftAt, survived, f.grace)
	m := lagAccum(recv, lo, hi)
	s.Present.Add(m)
	// The same accumulator, split by service class. Riders stays empty
	// when no free-riders were configured.
	if rider {
		s.Riders.Add(m)
	} else {
		s.Cooperators.Add(m)
	}
	// NodeResult.UploadKbps' expression, rounded; sent bytes are frozen
	// from the crash on, so folding early loses nothing.
	s.Upload.Observe(int64(math.Round(float64(stats.TotalSentBytes()) * 8 / f.endSeconds / 1000)))
}

// lagAccum folds the lags of windows [lo, hi) of one receiver.
func lagAccum(recv *stream.Receiver, lo, hi int) telemetry.LagAccum {
	var a telemetry.LagAccum
	for w := lo; w < hi; w++ {
		lag, ok := recv.Lag(w)
		if !ok {
			lag = telemetry.NeverCompleted
		}
		a.Observe(lag)
	}
	return a
}

// lifetimeWindows returns the half-open range [lo, hi) of windows a node
// is scored on when its quality is restricted to its lifetime: those whose
// publish span lies inside [joinedAt+grace, leftAt-grace], where the join
// side applies only to nodes admitted at runtime (joinedAt > 0) and the
// leave side only to nodes that departed (see Result.LifetimeQualities for
// why). Window start and end are both increasing in w, so the eligible set
// is contiguous; lo == hi when it is empty — joined too late, or dead too
// early. The one definition of the mask: the fold and LifetimeQualities
// both call it.
func lifetimeWindows(l stream.Layout, joinedAt, leftAt time.Duration, survived bool, grace time.Duration) (lo, hi int) {
	if joinedAt > 0 {
		packetTime := l.PacketTime()
		for lo < l.Windows && time.Duration(lo*l.DataPerWindow)*packetTime < joinedAt+grace {
			lo++
		}
	}
	lastEnd := leftAt
	if !survived {
		lastEnd -= grace
	}
	hi = l.Windows
	for hi > lo && l.WindowPublishTime(hi-1) > lastEnd {
		hi--
	}
	return lo, hi
}

// hasChurnProcess mirrors the figure generators' population switch.
func (r *Result) hasChurnProcess() bool {
	p := r.Config.ChurnProcess
	return p != nil && !p.IsZero()
}

// scored returns the population the figures score: the lifetime-masked
// set under a churn process, the paper's survivors otherwise.
func (r *Result) scored() *telemetry.QualitySet {
	if r.hasChurnProcess() {
		return &r.Streaming.Present
	}
	return &r.Streaming.Survivors
}

// The accessors below read the fold (Result.Streaming) and nothing else,
// so they answer identically whether or not the run retained per-node
// rows. Every lag they take must be one of telemetry.LagProbes — an
// accumulator keeps one count per probe — and any other lag panics naming
// the way to score it from the rows.

// ScoredViewablePct returns the percentage of scored nodes viewable at
// lag under maxJitter — the figure generators' y-axis. lag must be one of
// telemetry.LagProbes.
func (r *Result) ScoredViewablePct(lag time.Duration, maxJitter float64) float64 {
	return r.scored().PercentViewable(lag, maxJitter)
}

// ScoredMeanCompletePct returns the mean complete-window percentage of
// the scored population at lag. lag must be one of telemetry.LagProbes.
func (r *Result) ScoredMeanCompletePct(lag time.Duration) float64 {
	return r.scored().MeanCompleteFraction(lag)
}

// ScoredLagCDFAt returns the percentage of scored nodes whose critical
// lag under maxJitter is at most probe — one Figure 2 point. probe must be
// one of telemetry.LagProbes.
func (r *Result) ScoredLagCDFAt(probe time.Duration, maxJitter float64) float64 {
	return r.scored().LagCDFAt(probe, maxJitter)
}

// SurvivorViewablePct scores only the nodes alive at run end, whatever
// the churn shape — the population cmd/gossipsim's headline metrics use.
// lag must be one of telemetry.LagProbes.
func (r *Result) SurvivorViewablePct(lag time.Duration, maxJitter float64) float64 {
	return r.Streaming.Survivors.PercentViewable(lag, maxJitter)
}

// SurvivorMeanCompletePct returns the survivors' mean complete-window
// percentage at lag. lag must be one of telemetry.LagProbes.
func (r *Result) SurvivorMeanCompletePct(lag time.Duration) float64 {
	return r.Streaming.Survivors.MeanCompleteFraction(lag)
}

// PresentMeanCompletePct returns the lifetime-masked population's mean
// complete-window percentage at lag under the standard bootstrap grace —
// the sustained-churn quality report. lag must be one of
// telemetry.LagProbes.
func (r *Result) PresentMeanCompletePct(lag time.Duration) float64 {
	return r.Streaming.Present.MeanCompleteFraction(lag)
}

// NodeCount returns the number of non-source nodes ever present.
func (r *Result) NodeCount() int { return r.Streaming.Nodes }

// SurvivorCount returns the number of non-source nodes alive at run end.
func (r *Result) SurvivorCount() int { return r.Streaming.Nodes - r.Streaming.Departed }

// JoinedCount returns how many nodes were admitted at runtime.
func (r *Result) JoinedCount() int { return r.Streaming.Joined }

// DepartedCount returns how many nodes crashed or departed.
func (r *Result) DepartedCount() int { return r.Streaming.Departed }

// PresentCount returns the size of the lifetime-masked scoring
// population (nodes with at least one eligible window).
func (r *Result) PresentCount() int { return r.Streaming.Present.Len() }

// classSet returns the accumulators of one service class.
func (r *Result) classSet(rider bool) *telemetry.QualitySet {
	if rider {
		return &r.Streaming.Riders
	}
	return &r.Streaming.Cooperators
}

// ClassMeanCompletePct returns the mean complete-window percentage at lag
// of one service class (free-riders or cooperators), scored over the
// lifetime-masked window set under the standard bootstrap grace — the
// service-asymmetry report: how much quality the riders extract, and what
// their presence costs the nodes actually serving. Zero when the class is
// empty. lag must be one of telemetry.LagProbes.
func (r *Result) ClassMeanCompletePct(rider bool, lag time.Duration) float64 {
	return r.classSet(rider).MeanCompleteFraction(lag)
}

// ClassCount returns the number of scored nodes of one service class
// (nodes with at least one eligible window).
func (r *Result) ClassCount(rider bool) int { return r.classSet(rider).Len() }

// UploadSummary digests the per-node mean upload rates (kbps), each
// rounded to a whole kbps and folded from every node ever present.
// Result.UploadDistribution has the exact per-node values.
func (r *Result) UploadSummary() telemetry.HistSummary { return r.Streaming.Upload.Summary() }
