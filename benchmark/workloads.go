package main

import (
	"fmt"
	"math"
	"time"

	gs "gossipstream"
)

// scale shrinks a workload without changing its shape. Timed repetitions run
// at fullScale; the set-up warm-up, the companions of the traced pass and the
// tests run the same deployments shorter or smaller.
type scale struct {
	nodes float64 // multiplies the population
	time  float64 // multiplies stream length and drain
}

var fullScale = scale{1, 1}

func (s scale) n(nodes int) int {
	return max(int(math.Round(float64(nodes)*s.nodes)), 8)
}

func (s scale) d(d time.Duration) time.Duration {
	return time.Duration(float64(d) * s.time)
}

// quarter sizes the companion deployments a traced pass runs only to put a
// number on layers the workload itself does not exercise.
func (s scale) quarter() scale { return scale{s.nodes, s.time / 4} }

// workload is one set of inputs. build is a pure function of (seed, scale)
// and goes through the root facade only.
type workload struct {
	name  string
	why   string
	build func(seed int64, s scale) gs.ExperimentConfig
}

var (
	steady1Shard = workload{
		name: "steady_1shard",
		why:  "ScaledExperiment(2000,1,15s), full view, batch scoring: core handlers, megasim scheduler and send/deliver on one core; no barriers, pss or churn",
		build: func(seed int64, s scale) gs.ExperimentConfig {
			cfg := gs.ScaledExperiment(s.n(2000), 1, s.d(15*time.Second))
			cfg.Seed = seed
			return cfg
		},
	}
	steady2Shard = workload{
		name: "steady_2shard",
		why:  "steady_1shard with Shards=2: same deployment, so the only added layer is megasim barrier/merge (about 9k conservative windows); needs 2 CPUs",
		build: func(seed int64, s scale) gs.ExperimentConfig {
			cfg := gs.ScaledExperiment(s.n(2000), 2, s.d(15*time.Second))
			cfg.Seed = seed
			return cfg
		},
	}
	cyclonChurn = workload{
		name: "cyclon_churn",
		why:  "ScaledExperiment(1000,1,30s), Cyclon, SustainedChurn 1%/s each way, streaming scoring: AtBarrier admissions, arena recycling, pss shuffles, telemetry fold",
		build: func(seed int64, s scale) gs.ExperimentConfig {
			cfg := gs.ScaledExperiment(s.n(1000), 1, s.d(30*time.Second))
			cfg.Seed = seed
			cfg.Membership = gs.MembershipCyclon
			rate := 0.01 * float64(cfg.Nodes)
			cfg.ChurnProcess = gs.SustainedChurn(rate, rate)
			cfg.StreamingMetrics = true
			return cfg
		},
	}
	paperTestbed = workload{
		name: "paper_testbed",
		why:  "DefaultExperiment, 230 nodes, DefaultLayout(60) (166 simulated s), Shards=0, 20% catastrophe mid-stream: the cmd/figures traffic, on whatever engine Shards=0 selects",
		build: func(seed int64, s scale) gs.ExperimentConfig {
			cfg := gs.DefaultExperiment()
			cfg.Seed = seed
			cfg.Nodes = s.n(230)
			cfg.Layout = gs.DefaultLayout(max(int(math.Round(60*s.time)), 2))
			cfg.Drain = s.d(60 * time.Second)
			cfg.Shards = 0
			cfg.Churn = gs.Catastrophe(cfg.Layout.Duration()/2, 0.2)
			return cfg
		},
	}

	// workloads lists every workload in the order the benchmark runs them.
	// The names and reasons are mirrored in BENCHMARK.json (a test keeps
	// them equal).
	workloads = []workload{steady1Shard, steady2Shard, cyclonChurn, paperTestbed}
)

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// companionOf returns the small deployment a traced pass adds beside the
// twin of cfg so that both membership layers get a number: a Cyclon
// deployment beside a full-view twin, a full-view one beside a Cyclon twin.
func companionOf(cfg gs.ExperimentConfig, seed int64, s scale) gs.ExperimentConfig {
	w := cyclonChurn
	if cfg.Membership == gs.MembershipCyclon {
		w = steady1Shard
	}
	return twinDeployment(w.build(seed, s.quarter()))
}
