package telemetry_test

import (
	"sort"
	"strings"
	"testing"
	"time"

	"gossipstream/internal/metrics"
	"gossipstream/internal/telemetry"
	"gossipstream/internal/xrand"
)

// TestLagProbesShape pins what LagAccum.Observe and NumProbes assume of
// the probe set: its fixed length, ascending order, and InfiniteLag last.
func TestLagProbesShape(t *testing.T) {
	if len(telemetry.LagProbes) != telemetry.NumProbes {
		t.Fatal("NumProbes != len(LagProbes)")
	}
	if !sort.SliceIsSorted(telemetry.LagProbes, func(i, j int) bool {
		return telemetry.LagProbes[i] < telemetry.LagProbes[j]
	}) {
		t.Fatal("LagProbes not sorted")
	}
	if telemetry.LagProbes[telemetry.NumProbes-1] != telemetry.InfiniteLag {
		t.Fatal("last probe must be InfiniteLag")
	}
}

// randomLags draws one node's window lags: a mix of finite lags across
// the probe range (including exact probe values, the boundary case) and
// never-completed windows.
func randomLags(rng interface{ Intn(int) int }, windows int) []time.Duration {
	lags := make([]time.Duration, windows)
	for w := range lags {
		switch rng.Intn(5) {
		case 0:
			lags[w] = telemetry.NeverCompleted
		case 1:
			lags[w] = telemetry.LagProbes[rng.Intn(telemetry.NumProbes-1)] // exact probe hit
		default:
			lags[w] = time.Duration(rng.Intn(200_000)) * time.Millisecond
		}
	}
	return lags
}

func foldAccum(lags []time.Duration) telemetry.LagAccum {
	var a telemetry.LagAccum
	for _, l := range lags {
		a.Observe(l)
	}
	return a
}

// TestQualitySetMatchesMetrics is the exactness property: for random
// populations, every streaming reduction equals the batch reduction
// bit for bit (==, not approximately) at every probe and at several
// jitter thresholds, including the degenerate ones.
func TestQualitySetMatchesMetrics(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 50; trial++ {
		nodes := 1 + rng.Intn(40)
		var qs []metrics.Quality
		var set telemetry.QualitySet
		for i := 0; i < nodes; i++ {
			lags := randomLags(rng, 1+rng.Intn(30))
			qs = append(qs, metrics.QualityFromLags(lags))
			set.Add(foldAccum(lags))
		}
		if set.Len() != len(qs) {
			t.Fatalf("trial %d: set has %d nodes, want %d", trial, set.Len(), len(qs))
		}
		for _, jitter := range []float64{0, 0.01, 0.05, 0.5, 1} {
			for _, probe := range telemetry.LagProbes {
				if got, want := set.PercentViewable(probe, jitter), metrics.PercentViewable(qs, probe, jitter); got != want {
					t.Fatalf("trial %d: PercentViewable(%v, %v) = %v, want %v", trial, probe, jitter, got, want)
				}
				cdf := metrics.LagCDF(qs, []time.Duration{probe}, jitter)
				if got := set.LagCDFAt(probe, jitter); got != cdf[0] {
					t.Fatalf("trial %d: LagCDFAt(%v, %v) = %v, want %v", trial, probe, jitter, got, cdf[0])
				}
			}
		}
		for _, probe := range telemetry.LagProbes {
			if got, want := set.MeanCompleteFraction(probe), metrics.MeanCompleteFraction(qs, probe); got != want {
				t.Fatalf("trial %d: MeanCompleteFraction(%v) = %v, want %v", trial, probe, got, want)
			}
		}
	}
}

// TestAccumMergeAssociative pins the barrier-merge contract across shard
// counts: windows partitioned round-robin across any number of partial
// accumulators and merged in shard order — or in a different grouping —
// reproduce the sequential fold exactly.
func TestAccumMergeAssociative(t *testing.T) {
	rng := xrand.New(99)
	lags := randomLags(rng, 4096)
	whole := foldAccum(lags)
	for _, shards := range []int{1, 2, 3, 5, 8, 16, 64} {
		parts := make([]telemetry.LagAccum, shards)
		for i, l := range lags {
			parts[i%shards].Observe(l)
		}
		var flat telemetry.LagAccum
		for _, p := range parts {
			flat.Merge(p)
		}
		if flat != whole {
			t.Fatalf("shards=%d: flat merge differs from sequential fold", shards)
		}
		// Tree-shaped merge (pairwise reduction) must agree too.
		for len(parts) > 1 {
			var next []telemetry.LagAccum
			for i := 0; i < len(parts); i += 2 {
				a := parts[i]
				if i+1 < len(parts) {
					a.Merge(parts[i+1])
				}
				next = append(next, a)
			}
			parts = next
		}
		if parts[0] != whole {
			t.Fatalf("shards=%d: tree merge differs from sequential fold", shards)
		}
	}
}

func TestEmptySetScoresZero(t *testing.T) {
	var set telemetry.QualitySet
	set.Add(telemetry.LagAccum{}) // zero windows: dropped
	if set.Len() != 0 {
		t.Fatal("empty accumulator was not dropped")
	}
	if set.PercentViewable(telemetry.InfiniteLag, 0.01) != 0 ||
		set.MeanCompleteFraction(telemetry.InfiniteLag) != 0 ||
		set.LagCDFAt(telemetry.InfiniteLag, 0.01) != 0 {
		t.Fatal("empty set must score 0, as metrics does")
	}
}

// TestNonProbeLagPanics: a set keeps one count per probe, so a query at
// any other lag is a caller bug, reported with the lag and the way out.
func TestNonProbeLagPanics(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "lag 7s") || !strings.Contains(msg, "LifetimeQualities") {
			t.Fatalf("panic %q does not name the lag and the per-node route", msg)
		}
	}()
	var set telemetry.QualitySet
	set.MeanCompleteFraction(7 * time.Second)
}
