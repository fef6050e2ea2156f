// Benchmarks regenerating every table and figure of the paper's evaluation
// at reduced scale, plus ablations of the design choices DESIGN.md calls
// out. Run the full-scale versions with cmd/figures; these benches keep
// each iteration to a few seconds so `go test -bench=.` stays tractable.
//
// Custom metrics reported per bench (beyond ns/op):
//
//	viewable%   — nodes within the 1% jitter bar (offline) for a key row
//	complete%   — mean complete-window percentage for a key row
package gossipstream

import (
	"testing"
	"time"
)

// benchScale shrinks figure runs: ≈55 nodes, ≈24 windows.
const benchScale = 0.2

func benchOptions() FigureOptions {
	return FigureOptions{Scale: benchScale}
}

func BenchmarkFigure1FanoutSweep(b *testing.B) {
	fanouts := []int{4, 6, 10, 24}
	for i := 0; i < b.N; i++ {
		tb, results, err := Figure1(benchOptions(), fanouts)
		if err != nil {
			b.Fatal(err)
		}
		if tb.NumRows() != len(fanouts) {
			b.Fatal("row mismatch")
		}
		// Report the optimal-fanout row's offline viewability.
		qs := results[1].SurvivorQualities()
		b.ReportMetric(PercentViewable(qs, OfflineLag, JitterThreshold), "viewable%")
	}
}

func BenchmarkFigure2LagCDF(b *testing.B) {
	fanouts := []int{6}
	for i := 0; i < b.N; i++ {
		tb, err := Figure2(benchOptions(), fanouts, nil)
		if err != nil {
			b.Fatal(err)
		}
		if tb.NumRows() == 0 {
			b.Fatal("empty CDF")
		}
	}
}

func BenchmarkFigure3LooserCaps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := Figure3(benchOptions(), []int{10, 30}, []int64{1_000_000, 2_000_000})
		if err != nil {
			b.Fatal(err)
		}
		if tb.NumRows() != 2 {
			b.Fatal("row mismatch")
		}
	}
}

func BenchmarkFigure4BandwidthDistribution(b *testing.B) {
	combos := []Figure4Combo{
		{Fanout: 6, CapBps: 700_000},
		{Fanout: 24, CapBps: 700_000},
	}
	for i := 0; i < b.N; i++ {
		if _, err := Figure4(benchOptions(), combos); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5RefreshRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := Figure5(benchOptions(), []int{1, 10, Never})
		if err != nil {
			b.Fatal(err)
		}
		if tb.NumRows() != 3 {
			b.Fatal("row mismatch")
		}
	}
}

func BenchmarkFigure6FeedMeRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := Figure6(benchOptions(), []int{1, Never})
		if err != nil {
			b.Fatal(err)
		}
		if tb.NumRows() != 2 {
			b.Fatal("row mismatch")
		}
	}
}

func BenchmarkFigure7ChurnResilience(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, _, err := Figure7(benchOptions(), []float64{0.2, 0.5}, []int{1, Never})
		if err != nil {
			b.Fatal(err)
		}
		if tb.NumRows() != 2 {
			b.Fatal("row mismatch")
		}
	}
}

func BenchmarkFigure8CompleteWindows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := Figure8(benchOptions(), []float64{0.2}, []int{1, Never}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if tb.NumRows() != 1 {
			b.Fatal("row mismatch")
		}
	}
}

func BenchmarkChurnClaim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := ChurnClaim(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.UnaffectedPct, "unaffected%")
	}
}

// benchAblation runs one scaled experiment and reports its mean complete %.
func benchAblation(b *testing.B, mutate func(*ExperimentConfig)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg := FigureOptions{Scale: benchScale}.BaseConfig()
		mutate(&cfg)
		res, err := RunExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		qs := res.SurvivorQualities()
		b.ReportMetric(MeanCompleteFraction(qs, OfflineLag), "complete%")
	}
}

// Ablation: the bounded throttle queue. A near-zero queue turns every burst
// into loss; the paper's limiter smooths bursts instead.
func BenchmarkAblationThrottlingOff(b *testing.B) {
	benchAblation(b, func(cfg *ExperimentConfig) { cfg.QueueBytes = 2048 })
}

func BenchmarkAblationThrottlingOn(b *testing.B) {
	benchAblation(b, func(cfg *ExperimentConfig) {})
}

// Ablation: FEC. Without the 9 parity packets every lost packet must be
// recovered by retransmission within its window deadline.
func BenchmarkAblationFECOff(b *testing.B) {
	benchAblation(b, func(cfg *ExperimentConfig) {
		cfg.Layout.ParityPerWindow = 0
	})
}

func BenchmarkAblationFECOn(b *testing.B) {
	benchAblation(b, func(cfg *ExperimentConfig) {})
}

// Ablation: retransmission depth K (paper lines 14–15/25).
func BenchmarkAblationRetransmitK1(b *testing.B) {
	benchAblation(b, func(cfg *ExperimentConfig) { cfg.Protocol.MaxRequests = 1 })
}

func BenchmarkAblationRetransmitK4(b *testing.B) {
	benchAblation(b, func(cfg *ExperimentConfig) { cfg.Protocol.MaxRequests = 4 })
}

// Ablation: retry target policy under churn. Re-requesting from the same
// (possibly dead) proposer is the paper's literal semantics; the random-
// proposer extension routes around failures.
func BenchmarkAblationRetrySameUnderChurn(b *testing.B) {
	benchAblation(b, func(cfg *ExperimentConfig) {
		cfg.Protocol.Retry = RetrySameProposer
		cfg.Churn = Catastrophe(cfg.Layout.Duration()/2, 0.3)
	})
}

func BenchmarkAblationRetryRandomUnderChurn(b *testing.B) {
	benchAblation(b, func(cfg *ExperimentConfig) {
		cfg.Protocol.Retry = RetryRandomProposer
		cfg.Churn = Catastrophe(cfg.Layout.Duration()/2, 0.3)
	})
}

// Ablation: membership substrate. The paper assumes free global
// membership; Cyclon partial views pay for sampling with shuffle traffic
// on the same capped uplinks. The Sharded pair runs the same comparison
// over four shards against the first pair's one, so cross-shard shuffle
// hand-off is priced for both substrates.
func BenchmarkAblationMembershipFull(b *testing.B) {
	benchAblation(b, func(cfg *ExperimentConfig) { cfg.Membership = MembershipFull })
}

func BenchmarkAblationMembershipCyclon(b *testing.B) {
	benchAblation(b, func(cfg *ExperimentConfig) { cfg.Membership = MembershipCyclon })
}

func BenchmarkAblationMembershipFullSharded(b *testing.B) {
	benchAblation(b, func(cfg *ExperimentConfig) {
		cfg.Membership = MembershipFull
		cfg.Shards = 4
	})
}

func BenchmarkAblationMembershipCyclonSharded(b *testing.B) {
	benchAblation(b, func(cfg *ExperimentConfig) {
		cfg.Membership = MembershipCyclon
		cfg.Shards = 4
	})
}

// Raw engine throughput: simulated events per second of one default run.
func BenchmarkSimulatorEventThroughput(b *testing.B) {
	var events uint64
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		cfg := FigureOptions{Scale: benchScale}.BaseConfig()
		start := time.Now()
		res, err := RunExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		elapsed += time.Since(start)
		events += res.Events
	}
	if elapsed > 0 {
		b.ReportMetric(float64(events)/elapsed.Seconds(), "events/s")
	}
}
