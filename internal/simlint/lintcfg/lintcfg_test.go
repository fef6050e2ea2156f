package lintcfg

import "testing"

func TestClassify(t *testing.T) {
	cfg := Default()
	cases := map[string]Class{
		"gossipstream/internal/megasim":    Deterministic,
		"gossipstream/internal/core":       Deterministic,
		"gossipstream/internal/pss":        Deterministic,
		"gossipstream/internal/experiment": Deterministic,
		"gossipstream/internal/churn":      Deterministic,
		"gossipstream/internal/stream":     Deterministic,
		"gossipstream/internal/wire":       Deterministic,
		"gossipstream/internal/gf256":      Kernel,
		"gossipstream/internal/fec":        Kernel,
		"gossipstream/internal/rt":         WallClockOK,
		"gossipstream/cmd/gossipsim":       WallClockOK,
		"gossipstream/examples/megascale":  WallClockOK,
		"gossipstream/internal/simnet":     Unclassified,
		"gossipstream/internal/xrand":      Unclassified,
		"gossipstream":                     Unclassified,
		"gossipstream/internal/telemetry":  Deterministic,
		// teleclock's path contains the deterministic telemetry segment
		// too; WallClockOK precedence keeps the clock edge exempt.
		"gossipstream/internal/telemetry/teleclock": WallClockOK,
		// Fixture-style single-segment paths classify the same way.
		"core":      Deterministic,
		"rt":        WallClockOK,
		"telemetry": Deterministic,
	}
	for path, want := range cases {
		if got := cfg.Classify(path); got != want {
			t.Errorf("Classify(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestWallClockOKOutranksDeterministic pins the precedence: a path whose
// segments match both classes stays exempt, so cmd/ tooling that embeds a
// deterministic package name is never misclassified.
func TestWallClockOKOutranksDeterministic(t *testing.T) {
	cfg := Default()
	if got := cfg.Classify("gossipstream/cmd/megasim"); got != WallClockOK {
		t.Fatalf("Classify(cmd/megasim) = %v, want WallClockOK", got)
	}
	if got := cfg.Classify("gossipstream/internal/fec"); got != Kernel {
		t.Fatalf("Kernel must outrank Deterministic; got %v", got)
	}
}

func TestRoots(t *testing.T) {
	cfg := Default()
	if rs := cfg.Roots("gossipstream/internal/megasim"); len(rs) == 0 {
		t.Error("megasim has no hot roots configured")
	}
	if rs := cfg.Roots("gossipstream/internal/churn"); rs != nil {
		t.Errorf("churn unexpectedly has hot roots %v", rs)
	}
	if rs := cfg.Roots("gossipstream/internal/telemetry"); len(rs) == 0 {
		t.Error("telemetry has no hot roots configured")
	}
	if rs := cfg.Roots("gossipstream/internal/wire"); len(rs) == 0 {
		t.Error("wire has no hot roots configured")
	}
	// The engines reach core's handlers only through interfaces and
	// closures, so without roots of its own the protocol is unaudited.
	if rs := cfg.Roots("gossipstream/internal/core"); len(rs) == 0 {
		t.Error("core has no hot roots configured")
	}
	// The queue's methods must be their own roots: peekAt is also reached
	// from the supervisor's next-event scan between windows, outside
	// runWindow's walk, so dropping these entries could un-audit the
	// queue.
	roots := map[string]bool{}
	for _, r := range cfg.Roots("gossipstream/internal/megasim") {
		roots[r] = true
	}
	for _, want := range []string{
		"(*radixQueue).push", "(*radixQueue).pop", "(*radixQueue).peekAt",
	} {
		if !roots[want] {
			t.Errorf("megasim hot roots missing queue entry point %s", want)
		}
	}
	// Likewise the typed message route, reached only through the
	// core.TimerEnv and megasim.TimerHandler interfaces: it carries most of
	// a run's events, and unlisted it would carry them unaudited.
	for _, r := range cfg.Roots("gossipstream/internal/core") {
		roots[r] = true
	}
	for _, want := range []string{
		"(*NodeEnv).SendIDs", "(*NodeEnv).SendServe", "(*Peer).HandleIDs",
	} {
		if !roots[want] {
			t.Errorf("hot roots missing typed message entry point %s", want)
		}
	}
	// The message stores: a fan-out's sends share the record their store
	// filled last, an outbox holds events and records, and the merge copies
	// each outbox record into the slab once; all of it runs per send.
	for _, want := range []string{
		"delivery", "(*msgRec).reuse", "(*shard).store", "(*shard).newRec",
		"(*outbox).push", "(*outbox).store", "(*shard).adopt", "(*shard).mergeInbound",
	} {
		if !roots[want] {
			t.Errorf("megasim hot roots missing message store entry point %s", want)
		}
	}
	// The membership layer, reached only through member.DynamicSampler and
	// member.Sampler: a Cyclon round and a partner draw run per node per
	// period and per gossip round.
	for pkg, want := range map[string][]string{
		"gossipstream/internal/pss":    {"(*State).Tick", "(*State).Handle", "(*State).SampleInto"},
		"gossipstream/internal/member": {"(*View).Partners"},
	} {
		got := map[string]bool{}
		for _, r := range cfg.Roots(pkg) {
			got[r] = true
		}
		for _, w := range want {
			if !got[w] {
				t.Errorf("%s hot roots missing %s", pkg, w)
			}
		}
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		Deterministic: "deterministic",
		Kernel:        "kernel",
		WallClockOK:   "wall-clock-ok",
		Unclassified:  "unclassified",
	} {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", c, got, want)
		}
	}
}

// TestZeroConfigClassifiesNothing: the zero value must be inert, so a
// misconfigured driver fails open (no spurious findings) rather than
// flagging the world.
func TestZeroConfigClassifiesNothing(t *testing.T) {
	var cfg Config
	if got := cfg.Classify("gossipstream/internal/megasim"); got != Unclassified {
		t.Fatalf("zero config classified %v", got)
	}
}
