package telemetry

import "math/bits"

// NumBuckets is the fixed size of a Hist: values 0..3 get exact buckets,
// larger values get four sub-buckets per power of two (quarter-octave
// resolution, ≤ ~19% relative width) up to the full int64 range.
const NumBuckets = 248

// Hist is a fixed-bucket log-scale histogram of non-negative int64
// samples (negative samples clamp to bucket 0). It is a plain value:
// Observe is a bounded number of integer ops with no allocation, and
// Add merges two histograms bucket-wise, so per-shard instances folded
// in deterministic shard order reproduce a single-instance run exactly.
type Hist struct {
	counts [NumBuckets]int64
	n      int64
	sum    int64
	min    int64
	max    int64
}

// bucketOf maps a sample to its bucket index; monotone in v.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	if v < 4 {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	return 4*e - 4 + int((uint64(v)>>(e-2))&3)
}

// BucketLow returns the smallest value that maps to bucket i — the
// inverse of the bucket function, used as the quantile representative.
func BucketLow(i int) int64 {
	if i < 4 {
		return int64(i)
	}
	e := (i + 4) / 4
	r := (i + 4) % 4
	return int64(4+r) << (e - 2)
}

// Observe records one sample.
//
//lint:hot runs per window per node as lifetimes close
func (h *Hist) Observe(v int64) {
	h.counts[bucketOf(v)]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
}

// Add merges o into h.
//
//lint:hot runs at every barrier reduction
func (h *Hist) Add(o *Hist) {
	if o.n == 0 {
		return
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.n == 0 || o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
}

// Count returns the number of samples observed.
func (h *Hist) Count() int64 { return h.n }

// Mean returns the exact sample mean (0 when empty).
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns a representative value for quantile p in [0,1]: the
// lower bound of the bucket holding the ceil(p·n)-th sample, clamped to
// the exact observed [min, max]. Zero when empty.
func (h *Hist) Quantile(p float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(p * float64(h.n))
	if float64(rank) < p*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := BucketLow(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// HistSummary is the JSON-facing digest of a Hist for the run manifest.
type HistSummary struct {
	Count int64   `json:"count"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
}

// Summary digests the histogram (zero value when empty).
func (h *Hist) Summary() HistSummary {
	if h.n == 0 {
		return HistSummary{}
	}
	return HistSummary{
		Count: h.n,
		Min:   h.min,
		Max:   h.max,
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
}
