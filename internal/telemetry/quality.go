package telemetry

import (
	"fmt"
	"math"
	"time"
)

// The lag vocabulary of every quality score. Defined here, in the leaf
// package (importable from the engine without pulling the protocol stack
// in); internal/metrics aliases them.
const (
	// InfiniteLag marks offline viewing (no deadline).
	InfiniteLag = time.Duration(1<<63 - 1)
	// NeverCompleted marks a window that never became viewable.
	NeverCompleted = time.Duration(-1)
	// DefaultJitterThreshold is the paper's quality bar: at most 1% of
	// windows missed.
	DefaultJitterThreshold = 0.01
)

// LagProbes is the canonical probe set of the streaming accumulators:
// Figure 2's lag axis plus InfiniteLag. It covers every lag the figure
// generators score at (offline, 20 s, 10 s), so a LagAccum folded once
// can answer all Figure 1/2/3/5/6/7 columns afterwards.
var LagProbes = []time.Duration{
	1 * time.Second, 2 * time.Second, 5 * time.Second, 10 * time.Second,
	15 * time.Second, 20 * time.Second, 30 * time.Second, 45 * time.Second,
	60 * time.Second, 90 * time.Second, 120 * time.Second, 150 * time.Second,
	InfiniteLag,
}

// NumProbes is len(LagProbes), fixed so LagAccum stays a flat value.
const NumProbes = 13

// ProbeIndex returns the index of lag in LagProbes.
func ProbeIndex(lag time.Duration) (int, bool) {
	for i, p := range LagProbes {
		if p == lag {
			return i, true
		}
	}
	return 0, false
}

// LagAccum is what the scoring fold keeps of one node's metrics.Quality:
// the number of scored windows and, per probe lag, how many of them
// completed within that lag — 60 flat bytes, so the receiver (and its
// window state) can be released the moment the node's lifetime closes.
//
// Folding the same window lags through Observe in any order yields the
// same accumulator. A run folds each node once, when its lifetime closes
// at a barrier or at run end, on one goroutine.
type LagAccum struct {
	Windows  int32
	Complete [NumProbes]int32
}

// Observe folds one window's lag (NeverCompleted if the window never
// became viewable). LagProbes is sorted, so a linear scan from the
// small end stops at the first probe ≥ lag; every later probe also
// completes. No allocation — this is a HotRoot-audited path.
//
//lint:hot runs per window per node as lifetimes close
func (a *LagAccum) Observe(lag time.Duration) {
	a.Windows++
	if lag == NeverCompleted {
		return
	}
	for i := NumProbes - 1; i >= 0; i-- {
		if lag > LagProbes[i] {
			break
		}
		a.Complete[i]++
	}
}

// QualitySet reduces a population of per-node accumulators with
// float-for-float the same expressions internal/metrics applies to
// retained []Quality, so a set's scores equal the metrics reductions over
// the same nodes' qualities taken in the same order (the twin tests hold
// it to that). MeanCompleteFraction sums floats in Add order; a run adds
// nodes in lifetime-close order — departures in crash order, then
// survivors by arena slot — which is also the order of its retained rows.
type QualitySet struct {
	accums []LagAccum
}

// Add appends one node's accumulator. Nodes with no scored windows are
// dropped, as LifetimeQualities omits nodes with no eligible window
// (full-run accumulators always have Windows > 0).
func (s *QualitySet) Add(a LagAccum) {
	if a.Windows > 0 {
		s.accums = append(s.accums, a)
	}
}

// Len returns the number of scored nodes.
func (s *QualitySet) Len() int { return len(s.accums) }

// PercentViewable returns the percentage of nodes viewable at lag under
// maxJitter — metrics.PercentViewable over accumulators. lag must be one
// of LagProbes, as in every reduction of the set.
func (s *QualitySet) PercentViewable(lag time.Duration, maxJitter float64) float64 {
	p := mustProbe(lag)
	if len(s.accums) == 0 {
		return 0
	}
	n := 0
	for _, a := range s.accums {
		// metrics: JitterAt = 1 - CompleteFraction; viewable when
		// jitter <= maxJitter + 1e-12.
		jitter := 1 - float64(a.Complete[p])/float64(a.Windows)
		if jitter <= maxJitter+1e-12 {
			n++
		}
	}
	return 100 * float64(n) / float64(len(s.accums))
}

// MeanCompleteFraction returns the average percentage of complete
// windows across nodes at lag — metrics.MeanCompleteFraction over
// accumulators.
func (s *QualitySet) MeanCompleteFraction(lag time.Duration) float64 {
	p := mustProbe(lag)
	if len(s.accums) == 0 {
		return 0
	}
	sum := 0.0
	for _, a := range s.accums {
		sum += float64(a.Complete[p]) / float64(a.Windows)
	}
	return 100 * sum / float64(len(s.accums))
}

// LagCDFAt returns the percentage of nodes whose critical lag under
// maxJitter is at most probe — one point of metrics.LagCDF over
// accumulators.
func (s *QualitySet) LagCDFAt(probe time.Duration, maxJitter float64) float64 {
	p := mustProbe(probe)
	if len(s.accums) == 0 {
		return 0
	}
	n := 0
	for _, a := range s.accums {
		// metrics.CriticalLag: need ceil((1-maxJitter)*windows*(1-1e-12))
		// completed windows; need <= 0 means viewable at lag 0. The
		// critical lag is the need-th smallest finite lag, so it is
		// ≤ probe exactly when Complete[probe] >= need.
		need := int(math.Ceil((1 - maxJitter) * float64(a.Windows) * (1 - 1e-12)))
		if need <= 0 || int(a.Complete[p]) >= need {
			n++
		}
	}
	return 100 * float64(n) / float64(len(s.accums))
}

// mustProbe resolves a query lag to its accumulator column. An accumulator
// keeps one count per probe, so no other lag can be answered from it.
func mustProbe(lag time.Duration) int {
	p, ok := ProbeIndex(lag)
	if !ok {
		panic(fmt.Sprintf("telemetry: lag %v is not one of LagProbes (%v and InfiniteLag); score other lags from the per-node rows: Result.SurvivorQualities or LifetimeQualities with the internal/metrics reductions",
			lag, LagProbes[:NumProbes-1]))
	}
	return p
}
