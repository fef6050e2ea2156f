package experiment

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"gossipstream/internal/churn"
	"gossipstream/internal/metrics"
	"gossipstream/internal/shaping"
	"gossipstream/internal/telemetry"
)

// smallCfg is a quick deployment that still exercises shaping, loss,
// retransmission, and FEC.
func smallCfg(seed int64) Config {
	cfg := Defaults()
	cfg.Nodes = 60
	cfg.Seed = seed
	cfg.Layout.Windows = 2
	cfg.Drain = 10 * time.Second
	return cfg
}

// qualityHash digests every node's per-window lags — the "byte-identical
// quality metrics" check: two runs agree iff their hashes agree.
func qualityHash(t *testing.T, res *Result) [32]byte {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	for _, n := range res.Nodes {
		for w := 0; w < n.Quality.Windows(); w++ {
			lag, ok := n.Quality.WindowLag(w)
			if !ok {
				lag = metrics.NeverCompleted
			}
			binary.LittleEndian.PutUint64(buf[:], uint64(lag))
			h.Write(buf[:])
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// TestRunDeterministicReplayDeep pins what Shards = 0 means: the default
// is the one-shard run, so the whole Result — recorded config, counters,
// stats, uploads, event counts — is deep-equal to a Shards = 1 run's, at
// two seeds, through a retransmission-heavy catastrophe (the path that
// once depended on map iteration order) and under Cyclon.
func TestRunDeterministicReplayDeep(t *testing.T) {
	for _, seed := range []int64{11, 12} {
		for _, cyclon := range []bool{false, true} {
			cfg := smallCfg(seed)
			cfg.Churn = ChurnAt(cfg.Layout.Duration()/2, 0.3)
			if cyclon {
				cfg.Membership = MembershipCyclon
			}
			def, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if def.Config.Shards != 1 || len(def.ShardLoads) != 1 {
				t.Fatalf("seed %d: Shards = 0 recorded %d shards and %d shard loads, want 1 and 1", seed, def.Config.Shards, len(def.ShardLoads))
			}
			cfg.Shards = 1
			one, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(def, one) {
				t.Fatalf("seed %d, cyclon %v: Shards = 0 and Shards = 1 produced different Results", seed, cyclon)
			}
		}
	}
}

// TestTelemetryAtDefaultShards: introspection asks for no shard count,
// and a one-shard run snapshots as often as a sharded one — at least once
// per simulated second, not once at the end.
func TestTelemetryAtDefaultShards(t *testing.T) {
	cfg := smallCfg(1)
	ticks := int64(0)
	cfg.Telemetry = &TelemetryOptions{
		SnapshotEvery: time.Second,
		Clock:         func() int64 { ticks++; return ticks },
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Telemetry at Shards = 0 failed: %v", err)
	}
	simulated := cfg.Layout.Duration() + cfg.Drain
	if want := int(simulated / time.Second); len(res.Snapshots) < want || res.Wall.RunNS <= 0 {
		t.Fatalf("Shards = 0 run took %d snapshots over %v and sampled %d ns of run wall, want at least %d and > 0",
			len(res.Snapshots), simulated, res.Wall.RunNS, want)
	}
	if len(res.Wall.ShardBusyNS) != 1 || res.Wall.ShardBusyNS[0] <= 0 {
		t.Fatalf("Shards = 0 run sampled shard busy time %v, want one entry > 0", res.Wall.ShardBusyNS)
	}
}

// setProcs sets GOMAXPROCS for the rest of the test and restores it after.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// shardFree returns a copy of r without what records its shard count: the
// recorded count, the per-shard loads and the wall profile. What is left
// is what the run computed, snapshots included, which the seed alone
// fixes.
func shardFree(r *Result) *Result {
	c := *r
	c.Config.Shards = 0
	c.ShardLoads, c.Wall = nil, telemetry.WallProfile{}
	return &c
}

// requireShardFree fails unless r, run at some shard count, computed what
// one, the one-shard run of the same config, computed.
func requireShardFree(t *testing.T, one, r *Result) {
	t.Helper()
	if !reflect.DeepEqual(shardFree(one), shardFree(r)) {
		t.Fatalf("%d shards and one shard produced different Results", r.Config.Shards)
	}
	if qualityHash(t, one) != qualityHash(t, r) {
		t.Fatalf("%d shards and one shard: quality metrics not byte-identical", r.Config.Shards)
	}
}

// identicalLatency gives every message the same latency: no base spread,
// no pair spread, no jitter. Same-instant arrivals are common then, and
// only the queue's tie rule — by origin, then push order — keeps what a
// node sees independent of the shard count.
func identicalLatency(cfg Config) Config {
	cfg.Net.BaseLatencySigma, cfg.Net.PairSpread, cfg.Net.JitterFrac = 0, 0, 0
	return cfg
}

// TestRunShardedDeterministicReplay is the sharded-engine analogue: a
// seed must reproduce the identical Result whatever the goroutine schedule
// and whatever the shard count. Replays at GOMAXPROCS 1 (every barrier
// wait parks) and 4 must be deep-equal to the run at the default, and the
// run at every shard count equal to the one-shard run but for what records
// the count (shardFree), progress snapshots included: they are taken
// every quarter of the stream, the second at the catastrophe's instant,
// which it must see before the crash. Besides a
// catastrophe under the default network it runs two networks of identical
// latencies, one with unlimited caps, where a node's whole fan-out arrives
// at one instant.
func TestRunShardedDeterministicReplay(t *testing.T) {
	catastrophe := smallCfg(11)
	catastrophe.Churn = append(catastrophe.Churn, ChurnAt(catastrophe.Layout.Duration()/2, 0.3)...)
	catastrophe.Telemetry = &TelemetryOptions{SnapshotEvery: catastrophe.Layout.Duration() / 4}
	uncapped := identicalLatency(catastrophe)
	uncapped.UploadCapBps = shaping.Unlimited
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"catastrophe", catastrophe},
		{"identical-latency", identicalLatency(catastrophe)},
		{"identical-latency-uncapped", uncapped},
	} {
		t.Run(c.name, func(t *testing.T) {
			var one *Result
			for _, shards := range []int{1, 2, 3, 4} {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					cfg := c.cfg
					cfg.Shards = shards
					a, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if a.Events == 0 {
						t.Fatal("sharded run executed no events")
					}
					if s := a.Snapshots; len(s) < 2 || s[1].Live != cfg.Nodes {
						t.Fatalf("snapshots %+v: want the second, at the catastrophe, to see all %d nodes alive", s, cfg.Nodes)
					}
					for _, procs := range []int{1, 4} {
						setProcs(t, procs)
						b, err := Run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(a, b) {
							t.Fatalf("GOMAXPROCS %d: identical (seed, shards) produced different Results", procs)
						}
						if qualityHash(t, a) != qualityHash(t, b) {
							t.Fatalf("GOMAXPROCS %d: quality metrics not byte-identical", procs)
						}
					}
					if shards == 1 {
						one = a
					} else if one == nil {
						t.Skip("no one-shard Result to compare with")
					} else {
						requireShardFree(t, one, a)
					}
				})
			}
		})
	}
}

// TestRunManyInterleavingIndependence checks that results computed under
// RunMany's worker-pool parallelism are identical to serial Run calls —
// goroutine scheduling must not leak into any Result, one shard or several.
// The oversubscribed batch runs four 2-shard configs at GOMAXPROCS 2: twice
// as many shards in flight as there are Ps, so every barrier wait parks at
// once.
func TestRunManyInterleavingIndependence(t *testing.T) {
	mixed := []Config{smallCfg(1), smallCfg(2), smallCfg(1), smallCfg(3)}
	mixed[2].Shards = 2 // one sharded run inside the parallel batch
	over := []Config{smallCfg(1), smallCfg(2), smallCfg(3), smallCfg(4)}
	for i := range over {
		over[i].Shards = 2
	}
	for _, c := range []struct {
		name  string
		procs int // 0: leave GOMAXPROCS as it is
		cfgs  []Config
	}{{"mixed", 0, mixed}, {"oversubscribed", 2, over}} {
		t.Run(c.name, func(t *testing.T) {
			if c.procs > 0 {
				setProcs(t, c.procs)
			}
			batch, err := RunMany(c.cfgs)
			if err != nil {
				t.Fatal(err)
			}
			for i, cfg := range c.cfgs {
				solo, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(batch[i], solo) {
					t.Fatalf("cfg %d: RunMany result differs from serial Run", i)
				}
			}
		})
	}
}

func TestShardsValidation(t *testing.T) {
	cfg := smallCfg(1)
	cfg.Shards = -1
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative Shards accepted")
	}
	// A count above the node count is clamped, and the recorded config
	// says so.
	cfg = smallCfg(1)
	cfg.Shards = cfg.Nodes + 5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Shards != cfg.Nodes {
		t.Fatalf("Shards = %d on %d nodes recorded as %d, want %d", cfg.Shards, cfg.Nodes, res.Config.Shards, cfg.Nodes)
	}
}

// TestShardedBaselineDisseminates mirrors TestRunDisseminatesStream on
// the sharded engine: the baseline scenario must deliver the stream to
// essentially everyone.
func TestShardedBaselineDisseminates(t *testing.T) {
	cfg := smallCfg(5)
	cfg.Nodes = 200
	cfg.Shards = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	qs := res.SurvivorQualities()
	if got := metrics.MeanCompleteFraction(qs, metrics.InfiniteLag); got < 95 {
		t.Fatalf("mean complete windows offline = %.1f%%, want >= 95%%", got)
	}
}

// TestShardedCatastropheAndHeterogeneous runs the two remaining paper
// scenarios on the sharded engine: a catastrophic burst kills the right
// fraction, and a heterogeneous cap mix produces unequal uploads.
func TestShardedCatastropheAndHeterogeneous(t *testing.T) {
	cfg := smallCfg(7)
	cfg.Nodes = 120
	cfg.Shards = 3
	cfg.UploadCapMix = []int64{400_000, 2_000_000}
	cfg.Churn = ChurnAt(cfg.Layout.Duration()/2, 0.25)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dead := 0
	for _, n := range res.Nodes {
		if !n.Survived {
			dead++
		}
	}
	want := int(float64(cfg.Nodes-1)*0.25 + 0.5)
	if dead != want {
		t.Fatalf("catastrophe killed %d nodes, want %d", dead, want)
	}
	// A node's upload cannot breach its cap by more than slack.
	for i, n := range res.Nodes {
		capKbps := float64(cfg.UploadCapMix[i%2]) / 1000
		if n.UploadKbps > capKbps*1.1 {
			t.Fatalf("node %d uploaded %.0f kbps over a %.0f kbps cap", n.ID, n.UploadKbps, capKbps)
		}
	}
}

// ChurnAt adapts churn.Catastrophic without importing it in every test.
func ChurnAt(at time.Duration, fraction float64) []churn.Event {
	return []churn.Event{{At: at, Fraction: fraction}}
}

// TestSharded10kPoissonChurnTwin is the sustained-churn acceptance run: two
// 10k-node sharded deployments under Poisson churn (join ≈ leave ≈ 1% of
// the population per second) over Cyclon partial views must produce
// deep-equal Results with byte-identical quality metrics — runtime
// admission replays exactly — and the nodes present for whole windows
// (after the bootstrap/delivery grace) must still see >= 95% of their
// windows complete. Skipped under -short and the race detector.
func TestSharded10kPoissonChurnTwin(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("10k-node acceptance run skipped in -short / race mode")
	}
	cfg := Defaults()
	cfg.Nodes = 10_000
	cfg.Shards = 4
	cfg.Seed = 1
	cfg.Layout.Windows = 9 // ≈16 s of stream
	cfg.Drain = 8 * time.Second
	cfg.Membership = MembershipCyclon
	proc := churn.SustainedPoisson(100, 100) // 1%/s of the initial 10k
	cfg.ChurnProcess = &proc

	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("10k Poisson churn: identical (seed, shards) produced different Results")
	}
	if qualityHash(t, a) != qualityHash(t, b) {
		t.Fatal("10k Poisson churn: quality metrics not byte-identical")
	}

	joined, departed := 0, 0
	for _, n := range a.Nodes {
		if n.JoinedAt > 0 {
			joined++
		}
		if !n.Survived {
			departed++
		}
	}
	// ≈16 s at 100/s each way: sanity-check the process actually churned.
	if joined < 1000 || departed < 1000 {
		t.Fatalf("joined = %d, departed = %d, want >= 1000 each", joined, departed)
	}
	qs := a.LifetimeQualities(cfg.BootstrapGrace())
	got := metrics.MeanCompleteFraction(qs, metrics.InfiniteLag)
	t.Logf("10k Poisson churn: %d joined, %d departed, %.2f%% mean complete windows over %d present nodes (%d events)",
		joined, departed, got, len(qs), a.Events)
	if got < 95 {
		t.Fatalf("mean complete windows among present nodes = %.2f%%, want >= 95%%", got)
	}
}
