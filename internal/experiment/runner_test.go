package experiment

import (
	"testing"
	"time"

	"gossipstream/internal/churn"
	"gossipstream/internal/metrics"
	"gossipstream/internal/shaping"
	"gossipstream/internal/stream"
	"gossipstream/internal/wire"
)

// smallConfig returns a fast configuration: 40 nodes, ~20 s of stream.
func smallConfig() Config {
	cfg := Defaults()
	cfg.Nodes = 40
	cfg.Layout.Windows = 12
	cfg.Drain = 20 * time.Second
	return cfg
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"defaults valid", func(c *Config) {}, true},
		{"one node", func(c *Config) { c.Nodes = 1 }, false},
		{"bad protocol", func(c *Config) { c.Protocol.Fanout = 0 }, false},
		{"bad layout", func(c *Config) { c.Layout.Windows = 0 }, false},
		{"negative cap", func(c *Config) { c.UploadCapBps = -1 }, false},
		{"no queue with cap", func(c *Config) { c.QueueBytes = 0 }, false},
		{"no queue uncapped ok", func(c *Config) { c.QueueBytes = 0; c.UploadCapBps = shaping.Unlimited }, true},
		{"no queue with capped source", func(c *Config) {
			c.QueueBytes, c.UploadCapBps, c.SourceCapBps = 0, shaping.Unlimited, 700_000
		}, false},
		{"no queue with capped mix entry", func(c *Config) {
			c.QueueBytes, c.UploadCapBps, c.UploadCapMix = 0, shaping.Unlimited, []int64{shaping.Unlimited, 700_000}
		}, false},
		{"no queue under an uncapped mix", func(c *Config) {
			c.QueueBytes, c.UploadCapMix = 0, []int64{shaping.Unlimited}
		}, true},
		{"negative drain", func(c *Config) { c.Drain = -time.Second }, false},
		{"bad churn", func(c *Config) { c.Churn = []churn.Event{{At: 0, Fraction: 2}} }, false},
		{"burst before start", func(c *Config) { c.Churn = []churn.Event{{At: -time.Second}} }, false},
		{"bursts with process", func(c *Config) {
			proc := churn.SustainedPoisson(0, 2)
			c.Churn, c.ChurnProcess = churn.Catastrophic(time.Second, 0.5), &proc
		}, true},
		{"reserved queue", func(c *Config) { c.Queue = 1 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := Defaults()
			tt.mutate(&cfg)
			if err := cfg.Validate(); (err == nil) != tt.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestRunDisseminatesStream(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 39 {
		t.Fatalf("got %d node results, want 39 (source excluded)", len(res.Nodes))
	}
	qs := res.SurvivorQualities()
	if got := metrics.MeanCompleteFraction(qs, metrics.InfiniteLag); got < 95 {
		t.Fatalf("mean complete fraction = %.1f%%, want ≥95%% on a small healthy system", got)
	}
	if res.Events == 0 {
		t.Fatal("no simulator events recorded")
	}
	for _, n := range res.Nodes {
		if !n.Survived {
			t.Fatalf("node %d reported dead with no churn", n.ID)
		}
		if n.UploadKbps <= 0 {
			t.Fatalf("node %d reports zero upload", n.ID)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := smallConfig()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Events != b.Events {
		t.Fatalf("event counts differ: %d vs %d", a.Events, b.Events)
	}
	for i := range a.Nodes {
		if a.Nodes[i].UploadKbps != b.Nodes[i].UploadKbps {
			t.Fatalf("node %d upload differs across identical runs", a.Nodes[i].ID)
		}
		if a.Nodes[i].Counters != b.Nodes[i].Counters {
			t.Fatalf("node %d counters differ across identical runs", a.Nodes[i].ID)
		}
	}
}

func TestRunSeedChangesOutcome(t *testing.T) {
	cfg := smallConfig()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 99
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Events == b.Events {
		t.Fatal("different seeds produced identical event counts (suspicious)")
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.Nodes = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRunWithChurnKillsRequestedFraction(t *testing.T) {
	cfg := smallConfig()
	cfg.Churn = churn.Catastrophic(cfg.Layout.Duration()/2, 0.25)
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
		t.Fatalf("%d nodes dead, want %d (25%% of %d)", dead, want, cfg.Nodes-1)
	}
	if len(res.SurvivorQualities()) != len(res.Nodes)-dead {
		t.Fatal("SurvivorQualities size mismatch")
	}
}

func TestRunChurnDegradesStaticViews(t *testing.T) {
	// The paper's headline: under churn, X=1 beats X=∞. This is the core
	// qualitative claim; verify it end to end at small scale.
	dynamic := smallConfig()
	dynamic.Churn = churn.Catastrophic(dynamic.Layout.Duration()/2, 0.3)

	static := dynamic
	static.Protocol.RefreshEvery = 0 // member.Never

	dres, err := Run(dynamic)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := Run(static)
	if err != nil {
		t.Fatal(err)
	}
	dMean := metrics.MeanCompleteFraction(dres.SurvivorQualities(), 20*time.Second)
	sMean := metrics.MeanCompleteFraction(sres.SurvivorQualities(), 20*time.Second)
	if dMean <= sMean {
		t.Fatalf("X=1 (%.1f%%) not better than X=∞ (%.1f%%) under 30%% churn", dMean, sMean)
	}
}

func TestRunUploadRespectsCapRoughly(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Upload averages can exceed the cap only by the queue drain after the
	// measurement window; allow 25% headroom.
	limit := float64(res.Config.UploadCapBps) / 1000 * 1.25
	for _, n := range res.Nodes {
		if n.UploadKbps > limit {
			t.Fatalf("node %d uploaded %.0f kbps, cap is %.0f", n.ID, n.UploadKbps, limit)
		}
	}
}

func TestUploadDistributionSorted(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dist := res.UploadDistribution()
	if len(dist) != len(res.Nodes) {
		t.Fatalf("distribution has %d entries, want %d", len(dist), len(res.Nodes))
	}
	for i := 1; i < len(dist); i++ {
		if dist[i] > dist[i-1] {
			t.Fatal("UploadDistribution not sorted descending")
		}
	}
}

func TestRunWithCyclonMembership(t *testing.T) {
	cfg := smallConfig()
	cfg.Membership = MembershipCyclon
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	qs := res.SurvivorQualities()
	if got := metrics.MeanCompleteFraction(qs, metrics.InfiniteLag); got < 90 {
		t.Fatalf("Cyclon membership mean complete = %.1f%%, want ≥90%%", got)
	}
	// Shuffle traffic must actually flow over the network.
	var shuffleBytes uint64
	for _, n := range res.Nodes {
		shuffleBytes += n.Stats.SentBytes[wire.KindShuffle]
	}
	if shuffleBytes == 0 {
		t.Fatal("no shuffle traffic under Cyclon membership")
	}
}

func TestRunCyclonDeterministic(t *testing.T) {
	cfg := smallConfig()
	cfg.Membership = MembershipCyclon
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Events != b.Events {
		t.Fatalf("Cyclon runs diverged: %d vs %d events", a.Events, b.Events)
	}
}

func TestValidateMembership(t *testing.T) {
	cfg := smallConfig()
	cfg.Membership = Membership(9)
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown membership accepted")
	}
	cfg = smallConfig()
	cfg.Membership = MembershipCyclon
	cfg.PSS.ViewSize = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("invalid PSS config accepted")
	}
}

func TestRunManyOrderAndParallel(t *testing.T) {
	cfgs := make([]Config, 4)
	for i := range cfgs {
		cfgs[i] = smallConfig()
		cfgs[i].Protocol.Fanout = 3 + i
	}
	results, err := RunMany(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Config.Protocol.Fanout != 3+i {
			t.Fatalf("result %d has fanout %d, want %d (order not preserved)", i, res.Config.Protocol.Fanout, 3+i)
		}
	}
}

func TestRunManyPropagatesError(t *testing.T) {
	cfgs := []Config{smallConfig(), smallConfig()}
	cfgs[1].Nodes = 0
	if _, err := RunMany(cfgs); err == nil {
		t.Fatal("RunMany swallowed an invalid config")
	}
}

func TestStreamRateDelivered(t *testing.T) {
	// Aggregate sanity: the average delivered goodput per node must be
	// close to the stream rate over the stream duration.
	cfg := smallConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var complete, total int
	for _, n := range res.Nodes {
		for w := 0; w < n.Quality.Windows(); w++ {
			if _, ok := n.Quality.WindowLag(w); ok {
				complete++
			}
			total++
		}
	}
	if frac := float64(complete) / float64(total); frac < 0.95 {
		t.Fatalf("only %.1f%% of windows completed", frac*100)
	}
	_ = stream.Layout{} // keep import for doc reference
}
