// Package telemetry is a hotalloc fixture shaped like the streaming fold
// accumulators: (*Hist).Observe, (*LagAccum).Observe, (*Hist).Add, and
// (*LagAccum).Merge are the marked hot roots. The real accumulators
// are flat counter arithmetic; the violations below are the regressions
// the analyzer must keep out of that path.
package telemetry

var probes = [4]int64{1, 2, 5, 10}

type sink interface {
	Log(v any)
}

// Hist mimics the fixed-bucket histogram: Observe and Add are hot roots.
type Hist struct {
	counts [8]int64
	n      int64
	trace  []int64
	out    sink
}

func bucketOf(v int64) int {
	if v < 0 {
		return 0
	}
	return int(v) % 8
}

// Observe is flat increments plus a reachable helper: clean.
//
//lint:hot runs per window per node as lifetimes close
func (h *Hist) Observe(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

// Add shows the audited regression shapes inside a barrier-merge root.
//
//lint:hot runs at every barrier reduction
func (h *Hist) Add(o *Hist) {
	undo := func() { h.n -= o.n } // want `function literal in hot path \(\(\*Hist\)\.Add\)`
	_ = undo

	h.trace = append(h.trace, o.n) // want `append in hot path \(\(\*Hist\)\.Add\)`

	h.out.Log(o.n) // want `argument boxes int64 into any in hot path \(\(\*Hist\)\.Add\)`

	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.n += o.n
}

// LagAccum mimics the per-node window-lag accumulator.
type LagAccum struct {
	windows  int32
	complete [4]int32
}

// Observe replicates the real probe scan: flat, clean.
//
//lint:hot runs per window per node as lifetimes close
func (a *LagAccum) Observe(lag int64) {
	a.windows++
	for i := len(probes) - 1; i >= 0; i-- {
		if lag > probes[i] {
			break
		}
		a.complete[i]++
	}
}

// Merge is bucket-wise addition: clean.
//
//lint:hot runs at every barrier reduction
func (a *LagAccum) Merge(o LagAccum) {
	a.windows += o.windows
	for i := range a.complete {
		a.complete[i] += o.complete[i]
	}
}

// summarize is NOT reachable from any root: derived reporting may
// allocate freely.
func (h *Hist) summarize() []int64 {
	out := make([]int64, 0, len(h.counts))
	for _, c := range h.counts {
		out = append(out, c)
	}
	return out
}
