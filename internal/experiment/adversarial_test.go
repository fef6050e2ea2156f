package experiment

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"gossipstream/internal/churn"
	"gossipstream/internal/metrics"
	"gossipstream/internal/wire"
)

// Adversarial membership scenarios: graceful departures, flash crowds,
// and free-riders. README's adversarial section records the 10k-node
// numbers; these tests pin semantics and replay determinism at unit scale.

// gracefulCfg is sustainedCfg with announced departures.
func gracefulCfg(seed int64, joinPerSec, leavePerSec float64) Config {
	cfg := sustainedCfg(seed, joinPerSec, leavePerSec)
	cfg.ChurnProcess.GracefulLeaves = true
	return cfg
}

// TestGracefulLeaveMatchesCrashSchedule: a graceful run and a crash-leave
// run at the same seed and rates must remove exactly the same nodes at
// exactly the same instants — the property that makes the pair a
// controlled experiment isolating detection lag from unavoidable loss.
func TestGracefulLeaveMatchesCrashSchedule(t *testing.T) {
	type departure struct {
		id     int64
		leftAt time.Duration
	}
	collect := func(res *Result) (departed []departure, joined int) {
		for _, n := range res.Nodes {
			if !n.Survived {
				departed = append(departed, departure{int64(n.ID), n.LeftAt})
			}
			if n.JoinedAt > 0 {
				joined++
			}
		}
		return departed, joined
	}
	crash, err := Run(sustainedCfg(11, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	graceful, err := Run(gracefulCfg(11, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	cd, cj := collect(crash)
	gd, gj := collect(graceful)
	if len(cd) == 0 {
		t.Fatal("no departures under 2/s leave rate")
	}
	if !reflect.DeepEqual(cd, gd) {
		t.Fatalf("departure schedules diverge:\ncrash:    %v\ngraceful: %v", cd, gd)
	}
	if cj != gj {
		t.Fatalf("joined %d (crash) vs %d (graceful)", cj, gj)
	}
	// The LEAVEs are real traffic: the graceful run put them on the wire.
	if got := graceful.TotalTraffic.SentMsgs[wire.KindLeave]; got == 0 {
		t.Fatal("graceful run sent no LEAVE messages")
	}
	if got := crash.TotalTraffic.SentMsgs[wire.KindLeave]; got != 0 {
		t.Fatalf("crash run sent %d LEAVE messages, want 0", got)
	}
	t.Logf("complete windows (present): crash %.1f%%, graceful %.1f%%",
		crash.PresentMeanCompletePct(metrics.InfiniteLag),
		graceful.PresentMeanCompletePct(metrics.InfiniteLag))
}

// TestGracefulLeaveReplayDeterministic: graceful departures — LEAVE
// fan-out included — replay bit-identically for a fixed seed, and at one
// shard compute what they do at three.
func TestGracefulLeaveReplayDeterministic(t *testing.T) {
	cfg := gracefulCfg(13, 2, 2)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("graceful leaves: identical (seed, shards) produced different Results")
	}
	if qualityHash(t, a) != qualityHash(t, b) {
		t.Fatal("graceful leaves: quality metrics not byte-identical")
	}
	cfg.Shards = 1
	one, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireShardFree(t, one, a)
}

// flashCfg is a small flash-crowd deployment: the population triples over
// a 2 s window starting 1 s into a ~10.6 s stream, leaving the crowd
// enough stream after the bootstrap grace to be held to the convergence
// bar.
func flashCfg(seed int64) Config {
	cfg := sustainedCfg(seed, 0, 0)
	cfg.Nodes = 80
	cfg.Layout.Windows = 6
	cfg.ChurnProcess = &churn.Process{Flash: []churn.FlashCrowd{
		{At: time.Second, Joiners: 160, Over: 2 * time.Second},
	}}
	return cfg
}

// TestFlashCrowdAdmitsAll: every joiner of the crowd is admitted, and
// every one with enough stream left after the bootstrap grace reaches at
// least one complete window — PR 5's runtime admission under a step load.
func TestFlashCrowdAdmitsAll(t *testing.T) {
	cfg := flashCfg(17)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.JoinedCount(); got != 160 {
		t.Fatalf("admitted %d of the 160-node crowd", got)
	}
	grace := cfg.BootstrapGrace()
	windowTime := cfg.Layout.Duration() / time.Duration(cfg.Layout.Windows)
	deadline := cfg.Layout.Duration() - grace - 2*windowTime
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
	if joiners == 0 {
		t.Fatal("no crowd member joined early enough to test convergence")
	}
	if converged < joiners*95/100 {
		t.Fatalf("only %d/%d crowd joiners reached a complete window, want >= 95%%", converged, joiners)
	}
	t.Logf("flash crowd: %d admitted, %d/%d early joiners converged", res.JoinedCount(), converged, joiners)
}

// TestFlashCrowdReplayDeterministic: a flash crowd replays bit-identically
// for a fixed (seed, shards).
func TestFlashCrowdReplayDeterministic(t *testing.T) {
	cfg := flashCfg(19)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("flash crowd: identical (seed, shards) produced different Results")
	}
}

// TestFreeRidersClassSplit: the even-spread rule assigns exactly
// floor(k·frac) riders among the first k ordinals, riders never propose
// or serve, and the class accessors partition the scored population.
func TestFreeRidersClassSplit(t *testing.T) {
	cfg := sustainedCfg(23, 0, 0)
	cfg.ChurnProcess = nil
	cfg.FreeRiders = 0.25
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRiders := int(math.Floor(0.25 * float64(cfg.Nodes-1)))
	riders := 0
	for _, n := range res.Nodes {
		if n.FreeRider {
			riders++
			if n.Counters.ProposesSent != 0 || n.Counters.ServesSent != 0 {
				t.Fatalf("rider %d proposed %d / served %d times, want 0/0",
					n.ID, n.Counters.ProposesSent, n.Counters.ServesSent)
			}
		} else if n.Counters.ProposesSent == 0 {
			t.Fatalf("cooperator %d never proposed", n.ID)
		}
	}
	if riders != wantRiders {
		t.Fatalf("%d riders among %d nodes, want exactly %d", riders, cfg.Nodes-1, wantRiders)
	}
	if got := res.ClassCount(true) + res.ClassCount(false); got != res.PresentCount() {
		t.Fatalf("class counts %d don't partition the %d scored nodes", got, res.PresentCount())
	}
	// Riders still receive the stream: leeching is asymmetry, not absence.
	if got := res.ClassMeanCompletePct(true, metrics.InfiniteLag); got < 50 {
		t.Fatalf("riders' mean complete windows = %.1f%%, want >= 50%% (they still request)", got)
	}
	t.Logf("free-riders: %d riders at %.1f%%, %d cooperators at %.1f%%",
		res.ClassCount(true), res.ClassMeanCompletePct(true, metrics.InfiniteLag),
		res.ClassCount(false), res.ClassMeanCompletePct(false, metrics.InfiniteLag))
}

// TestFreeRidersStreamingClassParity: the per-class folds must agree bit
// for bit with LifetimeQualities over each class's own rows, under churn
// so joiners and departures exercise the ordinal counter — and a run
// without rows must fold the same classes.
func TestFreeRidersStreamingClassParity(t *testing.T) {
	cfg := sustainedCfg(29, 2, 2)
	cfg.FreeRiders = 0.2
	batch, streaming := runTwin(t, cfg)
	assertTwinScores(t, batch, streaming)
	if streaming.ClassCount(true) == 0 || streaming.ClassCount(false) == 0 {
		t.Fatalf("scored %d riders and %d cooperators under churn, want both classes",
			streaming.ClassCount(true), streaming.ClassCount(false))
	}
}

// TestAdversarialValidation: the new knobs fail loudly on unsupported
// substrates and malformed fractions.
func TestAdversarialValidation(t *testing.T) {
	// Graceful departures need partial views to announce into.
	cfg := smallCfg(1)
	cfg.Shards = 2
	proc := churn.SustainedPoisson(0, 1)
	proc.GracefulLeaves = true
	cfg.ChurnProcess = &proc
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "graceful") {
		t.Fatalf("graceful leaves over full view accepted (err = %v)", err)
	}

	// A flash crowd is a joining process: full view cannot learn joiners.
	cfg = smallCfg(1)
	cfg.Shards = 2
	cfg.ChurnProcess = &churn.Process{Flash: []churn.FlashCrowd{{At: time.Second, Joiners: 10}}}
	_, err = Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "MembershipCyclon") {
		t.Fatalf("flash crowd over full view accepted (err = %v)", err)
	}

	// Free-rider fractions outside [0, 1] are rejected.
	for _, bad := range []float64{-0.1, 1.5, math.NaN()} {
		cfg = smallCfg(1)
		cfg.FreeRiders = bad
		if _, err := Run(cfg); err == nil {
			t.Fatalf("FreeRiders = %v accepted", bad)
		}
	}
}
