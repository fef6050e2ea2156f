package churn

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"gossipstream/internal/wire"
)

func TestEventValidate(t *testing.T) {
	tests := []struct {
		name string
		e    Event
		ok   bool
	}{
		{"valid", Event{At: time.Second, Fraction: 0.2}, true},
		{"zero fraction", Event{At: time.Second, Fraction: 0}, true},
		{"full fraction", Event{At: 0, Fraction: 1}, true},
		{"negative time", Event{At: -time.Second, Fraction: 0.5}, false},
		{"fraction over 1", Event{At: 0, Fraction: 1.1}, false},
		{"negative fraction", Event{At: 0, Fraction: -0.1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.e.Validate(); (err == nil) != tt.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestCatastrophic(t *testing.T) {
	events := Catastrophic(30*time.Second, 0.2)
	if len(events) != 1 || events[0].At != 30*time.Second || events[0].Fraction != 0.2 {
		t.Fatalf("Catastrophic = %+v", events)
	}
}

func TestPickSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	eligible := make([]wire.NodeID, 229) // 230 nodes minus the source
	for i := range eligible {
		eligible[i] = wire.NodeID(i + 1)
	}
	tests := []struct {
		fraction float64
		want     int
	}{
		{0, 0}, {0.10, 23}, {0.20, 46}, {0.5, 115}, {0.8, 183}, {1, 229},
	}
	for _, tt := range tests {
		got := Pick(eligible, tt.fraction, rng)
		if len(got) != tt.want {
			t.Fatalf("Pick(%v) selected %d, want %d", tt.fraction, len(got), tt.want)
		}
	}
}

func TestPickDistinctAndEligible(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	eligible := []wire.NodeID{5, 6, 7, 8, 9}
	for trial := 0; trial < 100; trial++ {
		got := Pick(eligible, 0.6, rng)
		seen := make(map[wire.NodeID]bool)
		for _, id := range got {
			if id < 5 || id > 9 {
				t.Fatalf("picked ineligible node %d", id)
			}
			if seen[id] {
				t.Fatalf("node %d picked twice", id)
			}
			seen[id] = true
		}
	}
}

// TestPickFloorsAtOne is the regression for the small-fraction no-op: a
// nonzero fraction over a nonempty set kills at least one node (229
// eligible × 0.002 used to round to zero victims).
func TestPickFloorsAtOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	eligible := make([]wire.NodeID, 229)
	for i := range eligible {
		eligible[i] = wire.NodeID(i + 1)
	}
	if got := Pick(eligible, 0.002, rng); len(got) != 1 {
		t.Fatalf("Pick(229, 0.002) selected %d victims, want the floor of 1", len(got))
	}
	if got := Pick(eligible, 0, rng); got != nil {
		t.Fatalf("Pick(229, 0) = %v, want nil (zero fraction stays a no-op)", got)
	}
	if got := Pick(nil, 0.5, rng); got != nil {
		t.Fatalf("Pick(0, 0.5) = %v, want nil (nothing eligible)", got)
	}
}

func TestPickClampsOverOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	eligible := []wire.NodeID{1, 2, 3}
	if got := Pick(eligible, 1.0, rng); len(got) != 3 {
		t.Fatalf("Pick(1.0) = %d nodes, want all 3", len(got))
	}
}

func TestPickUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	eligible := make([]wire.NodeID, 20)
	for i := range eligible {
		eligible[i] = wire.NodeID(i)
	}
	counts := make(map[wire.NodeID]int)
	const trials = 3000
	for i := 0; i < trials; i++ {
		for _, id := range Pick(eligible, 0.25, rng) {
			counts[id]++
		}
	}
	want := float64(trials) * 0.25 // 750 per node
	for id, c := range counts {
		if float64(c) < want*0.8 || float64(c) > want*1.2 {
			t.Fatalf("node %d picked %d times, want ≈%.0f", id, c, want)
		}
	}
}

func TestProcessValidate(t *testing.T) {
	tests := []struct {
		name string
		p    Process
		ok   bool
	}{
		{"zero", Process{}, true},
		{"rates", SustainedPoisson(2, 3), true},
		{"negative join", Process{JoinPerSec: -1}, false},
		{"nan leave", Process{LeavePerSec: math.NaN()}, false},
		{"inf join", Process{JoinPerSec: math.Inf(1)}, false},
		{"rate at cap", SustainedPoisson(MaxRate, 0), true},
		{"rate over cap", SustainedPoisson(0, 2*MaxRate), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(); (err == nil) != tt.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
	if !(Process{}).IsZero() || SustainedPoisson(1, 0).IsZero() {
		t.Fatal("IsZero misclassifies")
	}
}

// TestTimelineDeterministic: the schedule is a pure function of (process,
// seed, horizon) — the foundation of sustained-churn replay determinism.
func TestTimelineDeterministic(t *testing.T) {
	p := SustainedPoisson(5, 3)
	a := p.Timeline(42, time.Minute)
	b := p.Timeline(42, time.Minute)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (seed, horizon) produced different timelines")
	}
	c := p.Timeline(43, time.Minute)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical timelines")
	}
	if got := (Process{}).Timeline(1, time.Minute); len(got) != 0 {
		t.Fatalf("zero process produced %d events", len(got))
	}
}

// TestTimelineOrderedAndBounded: events come sorted by time, inside the
// horizon, and carry the right ops.
func TestTimelineOrderedAndBounded(t *testing.T) {
	p := Process{JoinPerSec: 4, LeavePerSec: 2}
	tl := p.Timeline(7, time.Minute)
	joins, leaves := 0, 0
	for i, ev := range tl {
		if ev.At < 0 || ev.At >= time.Minute {
			t.Fatalf("event %d at %v outside [0, 1m)", i, ev.At)
		}
		if i > 0 && ev.At < tl[i-1].At {
			t.Fatalf("event %d at %v before predecessor %v", i, ev.At, tl[i-1].At)
		}
		switch ev.Op {
		case OpJoin:
			joins++
		case OpLeave:
			leaves++
		default:
			t.Fatalf("event %d has op %v, want join or leave", i, ev.Op)
		}
	}
	if joins == 0 || leaves == 0 {
		t.Fatalf("got %d joins, %d leaves, want both > 0", joins, leaves)
	}
}

// TestTimelinePoissonRates: over a long horizon the event counts must match
// the configured rates (law of large numbers; 10% tolerance at ~2000
// expected events per stream).
func TestTimelinePoissonRates(t *testing.T) {
	const horizon = 1000 * time.Second
	p := SustainedPoisson(2, 1)
	joins, leaves := 0, 0
	for _, ev := range p.Timeline(11, horizon) {
		switch ev.Op {
		case OpJoin:
			joins++
		case OpLeave:
			leaves++
		}
	}
	if joins < 1800 || joins > 2200 {
		t.Fatalf("joins = %d over 1000 s at 2/s, want ≈2000", joins)
	}
	if leaves < 900 || leaves > 1100 {
		t.Fatalf("leaves = %d over 1000 s at 1/s, want ≈1000", leaves)
	}
}

// TestTimelineGracefulLeaves: flipping GracefulLeaves swaps the op but not
// the schedule — the graceful twin departs at instants identical to the
// crash twin's, which is what isolates detection lag.
func TestTimelineGracefulLeaves(t *testing.T) {
	crash := SustainedPoisson(1, 2)
	graceful := crash
	graceful.GracefulLeaves = true
	a := crash.Timeline(3, time.Minute)
	b := graceful.Timeline(3, time.Minute)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("timeline lengths differ: crash %d, graceful %d", len(a), len(b))
	}
	leaves := 0
	for i := range a {
		if a[i].At != b[i].At {
			t.Fatalf("event %d: crash at %v, graceful at %v", i, a[i].At, b[i].At)
		}
		switch a[i].Op {
		case OpLeave:
			leaves++
			if b[i].Op != OpGracefulLeave {
				t.Fatalf("event %d: crash leave paired with %v", i, b[i].Op)
			}
		default:
			if b[i].Op != a[i].Op {
				t.Fatalf("event %d: ops diverge (%v vs %v)", i, a[i].Op, b[i].Op)
			}
		}
	}
	if leaves == 0 {
		t.Fatal("no leave events at 2/s over a minute")
	}
}

// TestTimelineFlashCrowd: a flash crowd expands into evenly spaced joins
// over [At, At+Over), zero spread lands every join at one instant, and
// events beyond the horizon are dropped.
func TestTimelineFlashCrowd(t *testing.T) {
	p := Process{Flash: []FlashCrowd{{At: 10 * time.Second, Joiners: 50, Over: 10 * time.Second}}}
	tl := p.Timeline(1, time.Minute)
	if len(tl) != 50 {
		t.Fatalf("got %d events, want 50", len(tl))
	}
	for i, ev := range tl {
		want := 10*time.Second + time.Duration(i)*10*time.Second/50
		if ev.Op != OpJoin || ev.At != want {
			t.Fatalf("event %d = %+v, want join at %v", i, ev, want)
		}
	}
	step := Process{Flash: []FlashCrowd{{At: 59 * time.Second, Joiners: 3}}}
	for i, ev := range step.Timeline(1, time.Minute) {
		if ev.At != 59*time.Second || ev.Op != OpJoin {
			t.Fatalf("zero-spread event %d = %+v", i, ev)
		}
	}
	late := Process{Flash: []FlashCrowd{{At: 2 * time.Minute, Joiners: 5}}}
	if got := late.Timeline(1, time.Minute); len(got) != 0 {
		t.Fatalf("beyond-horizon flash produced %d events", len(got))
	}
	if !late.HasJoins() || late.IsZero() {
		t.Fatal("flash crowd not counted as joins/churn")
	}
	if (Process{}).HasJoins() || !SustainedPoisson(1, 0).HasJoins() {
		t.Fatal("HasJoins misclassifies Poisson streams")
	}
}

func TestFlashCrowdValidate(t *testing.T) {
	tests := []struct {
		name string
		f    FlashCrowd
		ok   bool
	}{
		{"valid", FlashCrowd{At: time.Second, Joiners: 100, Over: 10 * time.Second}, true},
		{"zero joiners", FlashCrowd{At: time.Second}, true},
		{"negative at", FlashCrowd{At: -time.Second, Joiners: 1}, false},
		{"negative joiners", FlashCrowd{Joiners: -1}, false},
		{"too many joiners", FlashCrowd{Joiners: MaxFlashJoiners + 1}, false},
		{"negative spread", FlashCrowd{Joiners: 1, Over: -time.Second}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.f.Validate(); (err == nil) != tt.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tt.ok)
			}
			p := Process{Flash: []FlashCrowd{tt.f}}
			if err := p.Validate(); (err == nil) != tt.ok {
				t.Fatalf("Process.Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestOpString(t *testing.T) {
	if OpJoin.String() != "join" || OpLeave.String() != "leave" || OpBurst.String() != "burst" ||
		OpGracefulLeave.String() != "graceful-leave" {
		t.Fatal("Op.String names wrong")
	}
	if Op(9).String() != "Op(9)" {
		t.Fatalf("unknown op string = %q", Op(9).String())
	}
}
