// Megasim scale benchmarks: wall time and event throughput of the sharded
// simulation engine across system sizes and shard counts. These feed
// BENCH_sim.json (see cmd/benchjson and the CI bench job); the shards-1
// vs shards-N pairs at a fixed size measure parallel speedup.
//
// Every scenario is the paper's baseline (fanout 7, 600 kbps stream,
// 700 kbps caps) over 30 simulated seconds, only bigger. Under -short the
// large sizes are skipped so the suite stays CI-friendly; run without
// -short (and with >= 8 cores) to reproduce the 100k acceptance numbers.
package gossipstream

import (
	"fmt"
	"testing"
	"time"

	"gossipstream/internal/experiment"
)

// simulatedScale is the virtual duration of every scale benchmark.
const simulatedScale = 30 * time.Second

func benchMegasim(b *testing.B, nodes, shards int) {
	benchMegasimMembership(b, nodes, shards, MembershipFull)
}

func benchMegasimMembership(b *testing.B, nodes, shards int, m experiment.Membership) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := ScaledExperiment(nodes, shards, simulatedScale)
		cfg.Seed = 1
		cfg.Membership = m
		res, err := RunExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Events == 0 {
			b.Fatal("no events executed")
		}
		b.ReportMetric(float64(res.Events), "events/op")
		qs := res.SurvivorQualities()
		b.ReportMetric(MeanCompleteFraction(qs, OfflineLag), "complete%")
	}
}

func BenchmarkMegasim2kShards1(b *testing.B) { benchMegasim(b, 2_000, 1) }
func BenchmarkMegasim2kShards8(b *testing.B) { benchMegasim(b, 2_000, 8) }

// BenchmarkMegasim*Cyclon* mirror the full-view scenarios with Cyclon
// partial-view membership (pss.State records on the sharded engine):
// cmd/benchjson pairs each with its full-view counterpart and records the
// overhead of realistic membership in BENCH_sim.json.
func BenchmarkMegasim2kCyclonShards1(b *testing.B) {
	benchMegasimMembership(b, 2_000, 1, MembershipCyclon)
}
func BenchmarkMegasim2kCyclonShards8(b *testing.B) {
	benchMegasimMembership(b, 2_000, 8, MembershipCyclon)
}

func BenchmarkMegasim10kCyclonShards8(b *testing.B) {
	if testing.Short() {
		b.Skip("10k-node scale run skipped in -short mode")
	}
	benchMegasimMembership(b, 10_000, 8, MembershipCyclon)
}

// BenchmarkMegasim*CyclonPoissonChurn* run the Cyclon scenarios under
// sustained Poisson churn (≈1% of the population joining and leaving per
// second, joiners admitted at runtime barriers with bootstrap over live
// partial views): cmd/benchjson pairs each with its churn-free Cyclon
// counterpart and records the wall-time and event-count cost of sustained
// churn in BENCH_sim.json ("megasim_poisson_churn").
func benchMegasimPoissonChurn(b *testing.B, nodes, shards int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := ScaledExperiment(nodes, shards, simulatedScale)
		cfg.Seed = 1
		cfg.Membership = MembershipCyclon
		rate := 0.01 * float64(nodes)
		cfg.ChurnProcess = SustainedChurn(rate, rate)
		res, err := RunExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Events == 0 {
			b.Fatal("no events executed")
		}
		b.ReportMetric(float64(res.Events), "events/op")
		lq := res.LifetimeQualities(res.Config.BootstrapGrace())
		b.ReportMetric(MeanCompleteFraction(lq, OfflineLag), "complete%")
		joined := 0
		for _, n := range res.Nodes {
			if n.JoinedAt > 0 {
				joined++
			}
		}
		b.ReportMetric(float64(joined), "joined/op")
	}
}

func BenchmarkMegasim2kCyclonPoissonChurnShards1(b *testing.B) {
	benchMegasimPoissonChurn(b, 2_000, 1)
}
func BenchmarkMegasim2kCyclonPoissonChurnShards8(b *testing.B) {
	benchMegasimPoissonChurn(b, 2_000, 8)
}

func BenchmarkMegasim10kCyclonPoissonChurnShards8(b *testing.B) {
	if testing.Short() {
		b.Skip("10k-node scale run skipped in -short mode")
	}
	benchMegasimPoissonChurn(b, 10_000, 8)
}

func BenchmarkMegasim10kShards1(b *testing.B) {
	if testing.Short() {
		b.Skip("10k-node scale run skipped in -short mode")
	}
	benchMegasim(b, 10_000, 1)
}

func BenchmarkMegasim10kShards8(b *testing.B) {
	if testing.Short() {
		b.Skip("10k-node scale run skipped in -short mode")
	}
	benchMegasim(b, 10_000, 8)
}

// BenchmarkMegasim100kShards* are the acceptance scenario: a 100k-node,
// 30-simulated-second baseline. Expect minutes of wall time per shard
// count; run with -benchtime=1x.
func BenchmarkMegasim100kShards1(b *testing.B) {
	if testing.Short() {
		b.Skip("100k-node scale run skipped in -short mode")
	}
	benchMegasim(b, 100_000, 1)
}

func BenchmarkMegasim100kShards8(b *testing.B) {
	if testing.Short() {
		b.Skip("100k-node scale run skipped in -short mode")
	}
	benchMegasim(b, 100_000, 8)
}

// BenchmarkMegasimScenario* are the adversarial membership scenarios at
// 10k nodes: the crash-leave vs graceful-leave twins at a 1%/s leave
// rate (same seed, same departure schedule — the completeness gap is
// pure detection lag; leave-only, so joiner bootstrap doesn't confound
// the split), a 10x flash crowd joining over 10 simulated seconds, and
// a population that is one-fifth free-riders. cmd/benchjson collects
// the rows into BENCH_sim.json ("megasim_scenarios") and records the
// graceful-over-crash ratios when both twins are present.
func benchMegasimScenario(b *testing.B, nodes int, mut func(*ExperimentConfig)) *ExperimentResult {
	b.ReportAllocs()
	var res *ExperimentResult
	for i := 0; i < b.N; i++ {
		cfg := ScaledExperiment(nodes, 8, simulatedScale)
		cfg.Seed = 1
		cfg.Membership = MembershipCyclon
		mut(&cfg)
		var err error
		res, err = RunExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Events == 0 {
			b.Fatal("no events executed")
		}
		b.ReportMetric(float64(res.Events), "events/op")
		lq := res.LifetimeQualities(res.Config.BootstrapGrace())
		b.ReportMetric(MeanCompleteFraction(lq, OfflineLag), "complete%")
		joined, departed := 0, 0
		for _, n := range res.Nodes {
			if n.JoinedAt > 0 {
				joined++
			}
			if !n.Survived {
				departed++
			}
		}
		b.ReportMetric(float64(joined), "joined/op")
		b.ReportMetric(float64(departed), "departed/op")
	}
	return res
}

func BenchmarkMegasimScenarioCrashLeave10k(b *testing.B) {
	if testing.Short() {
		b.Skip("10k-node scale run skipped in -short mode")
	}
	benchMegasimScenario(b, 10_000, func(cfg *ExperimentConfig) {
		cfg.ChurnProcess = SustainedChurn(0, 0.01*float64(cfg.Nodes))
	})
}

func BenchmarkMegasimScenarioGracefulLeave10k(b *testing.B) {
	if testing.Short() {
		b.Skip("10k-node scale run skipped in -short mode")
	}
	benchMegasimScenario(b, 10_000, func(cfg *ExperimentConfig) {
		cfg.ChurnProcess = GracefulChurn(0, 0.01*float64(cfg.Nodes))
	})
}

// BenchmarkMegasimScenarioFlashCrowd10k starts from 1,000 nodes and
// admits 9,000 more — 10x the population — spread over 10 simulated
// seconds starting at t = 2 s. converged% is the acceptance number: the
// share of crowd members who joined with at least the bootstrap grace
// plus two windows of stream left and went on to complete at least one
// whole window.
func BenchmarkMegasimScenarioFlashCrowd10k(b *testing.B) {
	if testing.Short() {
		b.Skip("10k-node scale run skipped in -short mode")
	}
	res := benchMegasimScenario(b, 1_000, func(cfg *ExperimentConfig) {
		cfg.ChurnProcess = FlashCrowdChurn(2*time.Second, 9*cfg.Nodes, 10*time.Second)
	})
	cfg := res.Config
	windowTime := cfg.Layout.Duration() / time.Duration(cfg.Layout.Windows)
	deadline := cfg.Layout.Duration() - cfg.BootstrapGrace() - 2*windowTime
	joiners, converged := 0, 0
	for _, n := range res.Nodes {
		if n.JoinedAt == 0 || n.JoinedAt > deadline {
			continue
		}
		joiners++
		for w := 0; w < n.Quality.Windows(); w++ {
			if _, ok := n.Quality.WindowLag(w); ok {
				converged++
				break
			}
		}
	}
	if joiners > 0 {
		b.ReportMetric(100*float64(converged)/float64(joiners), "converged%")
	}
}

func BenchmarkMegasimScenarioFreeRiders10k(b *testing.B) {
	if testing.Short() {
		b.Skip("10k-node scale run skipped in -short mode")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := ScaledExperiment(10_000, 8, simulatedScale)
		cfg.Seed = 1
		cfg.Membership = MembershipCyclon
		cfg.FreeRiders = 0.2
		res, err := RunExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Events == 0 {
			b.Fatal("no events executed")
		}
		b.ReportMetric(float64(res.Events), "events/op")
		b.ReportMetric(float64(res.ClassCount(true)), "riders/op")
		b.ReportMetric(res.ClassMeanCompletePct(true, OfflineLag), "rider-complete%")
		b.ReportMetric(res.ClassMeanCompletePct(false, OfflineLag), "server-complete%")
	}
}

// BenchmarkMegasimQueue* are the scheduler ablation pair: the same
// single-shard baseline run on the 4-ary heap and on the calendar queue.
// Single-shard isolates the scheduler (no barrier or merge overlap to
// hide behind); cmd/benchjson pairs each Calendar row with its Heap twin
// and records the wall-time speedup in BENCH_sim.json
// ("megasim_queue_ablation"), alongside the pure scheduler microbench
// (BenchmarkMegasimQueueOps* in internal/megasim).
func benchMegasimQueue(b *testing.B, nodes int, q QueueKind) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := ScaledExperiment(nodes, 1, simulatedScale)
		cfg.Seed = 1
		cfg.Queue = q
		res, err := RunExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Events == 0 {
			b.Fatal("no events executed")
		}
		b.ReportMetric(float64(res.Events), "events/op")
	}
}

func BenchmarkMegasimQueueHeap2k(b *testing.B)     { benchMegasimQueue(b, 2_000, QueueHeap) }
func BenchmarkMegasimQueueCalendar2k(b *testing.B) { benchMegasimQueue(b, 2_000, QueueCalendar) }

func BenchmarkMegasimQueueHeap10k(b *testing.B) {
	if testing.Short() {
		b.Skip("10k-node scale run skipped in -short mode")
	}
	benchMegasimQueue(b, 10_000, QueueHeap)
}

func BenchmarkMegasimQueueCalendar10k(b *testing.B) {
	if testing.Short() {
		b.Skip("10k-node scale run skipped in -short mode")
	}
	benchMegasimQueue(b, 10_000, QueueCalendar)
}

// BenchmarkMegasimEventThroughput is BenchmarkSimulatorEventThroughput's
// metric — events per wall-second — on 2,000 nodes over eight shards,
// where that one runs the default deployment on one.
func BenchmarkMegasimEventThroughput(b *testing.B) {
	cfg := ScaledExperiment(2_000, 8, simulatedScale)
	cfg.Seed = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		res, err := RunExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		secs := time.Since(start).Seconds()
		b.ReportMetric(float64(res.Events)/secs, "events/s")
	}
}

// ExampleScaledExperiment documents the scale-run entry point.
func ExampleScaledExperiment() {
	cfg := ScaledExperiment(100_000, 8, 30*time.Second)
	fmt.Println(cfg.Nodes, cfg.Shards, cfg.Layout.Duration()+cfg.Drain == 30*time.Second)
	// Output: 100000 8 true
}
