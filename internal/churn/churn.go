// Package churn builds failure schedules for dissemination experiments.
//
// The paper's churn study (§4.3) uses catastrophic failures: at a chosen
// instant, a random fraction of the nodes crash simultaneously and stay
// dead. No failure detection or repair runs afterwards — survivors keep
// selecting partners among all nodes, dead ones included.
//
// Beyond the paper, Process models sustained churn: independent Poisson
// streams of node arrivals and departures, expanded by Timeline into a
// deterministic, seeded schedule of join/leave events. A burst is one
// more kind of TimelineEvent (OpBurst), so an executor can run the
// catastrophic scenario and a process from one list. Joins require an
// executor that can admit nodes at runtime (the engine's barrier
// admission) and a membership substrate that can learn them (partial
// views, internal/pss).
//
//lint:deterministic churn schedules are drawn from the run's seed
package churn

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"time"

	"gossipstream/internal/wire"
	"gossipstream/internal/xrand"
)

// Event is one failure burst: at time At, Fraction of the eligible nodes
// crash simultaneously.
type Event struct {
	At       time.Duration
	Fraction float64
}

// Validate reports whether the event is well formed.
func (e Event) Validate() error {
	if e.At < 0 {
		return fmt.Errorf("churn: event time %v before start", e.At)
	}
	if e.Fraction < 0 || e.Fraction > 1 {
		return fmt.Errorf("churn: fraction %v outside [0,1]", e.Fraction)
	}
	return nil
}

// Catastrophic returns the paper's scenario: one burst killing fraction of
// the nodes at the given time.
func Catastrophic(at time.Duration, fraction float64) []Event {
	return []Event{{At: at, Fraction: fraction}}
}

// Op is the kind of one Timeline event.
type Op uint8

const (
	// OpJoin admits one new node into the running system.
	OpJoin Op = iota + 1
	// OpLeave ungracefully removes one live node — same semantics as a
	// crash: no goodbye message, descriptors elsewhere age out.
	OpLeave
	// OpBurst crashes Fraction of the live nodes at one instant — the
	// paper's catastrophic scenario (an Event). Timeline never emits it:
	// an executor that runs both shapes lists its bursts as OpBurst
	// events beside the process's timeline.
	OpBurst
	// OpGracefulLeave removes one live node gracefully: before it stops,
	// the node gossips a LEAVE so partners shed its descriptor immediately
	// instead of waiting for it to age out. Comparing graceful vs crash
	// departures at identical rates splits churn cost into detection lag
	// vs unavoidable loss.
	OpGracefulLeave
)

// String names the op for error messages and logs.
func (o Op) String() string {
	switch o {
	case OpJoin:
		return "join"
	case OpLeave:
		return "leave"
	case OpBurst:
		return "burst"
	case OpGracefulLeave:
		return "graceful-leave"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// TimelineEvent is one scheduled churn action. Fraction is meaningful for
// OpBurst only.
type TimelineEvent struct {
	At       time.Duration
	Op       Op
	Fraction float64
}

// MaxFlashJoiners bounds one flash crowd's size, for the same reason
// MaxRate bounds the Poisson rates: a typo must fail validation instead of
// materializing a timeline of billions of admission barriers.
const MaxFlashJoiners = 1_000_000

// FlashCrowd is a step join process: Joiners nodes arrive evenly spread
// over [At, At+Over) — e.g. a 10× population spike over 10 s. Over == 0
// schedules every join at the same instant.
type FlashCrowd struct {
	At      time.Duration
	Joiners int
	Over    time.Duration
}

// Validate reports whether the flash crowd is well formed.
func (f FlashCrowd) Validate() error {
	if f.At < 0 {
		return fmt.Errorf("churn: flash crowd at %v before start", f.At)
	}
	if f.Joiners < 0 || f.Joiners > MaxFlashJoiners {
		return fmt.Errorf("churn: flash crowd of %d joiners, want in [0, %d]", f.Joiners, MaxFlashJoiners)
	}
	if f.Over < 0 {
		return fmt.Errorf("churn: flash crowd spread %v negative", f.Over)
	}
	return nil
}

// Process describes sustained churn: two independent Poisson streams — node
// arrivals at JoinPerSec and departures at LeavePerSec — plus optional
// flash-crowd join steps folded into the same schedule. The zero value is
// a valid no-churn process.
type Process struct {
	// JoinPerSec is the expected number of node arrivals per simulated
	// second (0 disables joins). Arrivals are a Poisson process: Timeline
	// draws exponential inter-arrival times.
	JoinPerSec float64
	// LeavePerSec is the expected number of departures per simulated second
	// (0 disables). The executor picks each victim uniformly among the live
	// non-source nodes at event time.
	LeavePerSec float64
	// GracefulLeaves switches the departure stream from crash-style OpLeave
	// to OpGracefulLeave. The stream keeps its seed salt, so a graceful
	// twin of a crash run schedules departures at identical instants — the
	// comparison isolates detection lag from unavoidable loss.
	GracefulLeaves bool
	// Flash lists flash-crowd join steps to merge into the timeline.
	Flash []FlashCrowd
}

// SustainedPoisson returns a process with the given Poisson join and leave
// rates (events per simulated second) and no flash crowds.
func SustainedPoisson(joinPerSec, leavePerSec float64) Process {
	return Process{JoinPerSec: joinPerSec, LeavePerSec: leavePerSec}
}

// MaxRate bounds the Poisson rates Validate accepts: a million events per
// simulated second is far beyond any deployment scenario, and an
// unbounded rate would let a typo materialize a timeline of billions of
// events (every one an engine barrier) instead of failing validation.
const MaxRate = 1e6

// Validate reports whether the process is well formed.
func (p Process) Validate() error {
	if bad := p.JoinPerSec; bad < 0 || math.IsNaN(bad) || bad > MaxRate {
		return fmt.Errorf("churn: JoinPerSec = %v, want in [0, %g]", bad, float64(MaxRate))
	}
	if bad := p.LeavePerSec; bad < 0 || math.IsNaN(bad) || bad > MaxRate {
		return fmt.Errorf("churn: LeavePerSec = %v, want in [0, %g]", bad, float64(MaxRate))
	}
	for _, f := range p.Flash {
		if err := f.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// IsZero reports whether the process describes no churn at all.
func (p Process) IsZero() bool {
	return p.JoinPerSec == 0 && p.LeavePerSec == 0 && len(p.Flash) == 0
}

// HasJoins reports whether the process admits nodes at runtime — such a
// process needs an executor with runtime admission and a membership
// substrate that can learn the newcomers.
func (p Process) HasJoins() bool {
	if p.JoinPerSec > 0 {
		return true
	}
	for _, f := range p.Flash {
		if f.Joiners > 0 {
			return true
		}
	}
	return false
}

// Timeline expands the process into a deterministic event schedule over
// [0, horizon): exponential inter-arrival times for the join and leave
// streams are drawn from private splitmix64 streams over seed, merged with
// the flash crowds' joins in time order. The result is a pure function of
// (p, seed, horizon) — the replay-determinism of sustained-churn
// experiments rests on it. Events at equal instants order joins first,
// then leaves.
func (p Process) Timeline(seed int64, horizon time.Duration) []TimelineEvent {
	var out []TimelineEvent
	appendPoisson := func(rate float64, op Op, salt int64) {
		if rate <= 0 {
			return
		}
		rng := xrand.Seeded(seed ^ salt)
		at := time.Duration(0)
		for {
			// Exponential inter-arrival: -ln(1-U)/rate seconds, U in [0,1).
			// The 1 ns floor guarantees progress (and loop termination) even
			// for draws that truncate to zero at MaxRate-scale rates.
			dt := time.Duration(-math.Log(1-rng.Float64()) / rate * float64(time.Second))
			if dt <= 0 {
				dt = 1
			}
			at += dt
			if at >= horizon {
				return
			}
			out = append(out, TimelineEvent{At: at, Op: op})
		}
	}
	leaveOp := OpLeave
	if p.GracefulLeaves {
		leaveOp = OpGracefulLeave
	}
	appendPoisson(p.JoinPerSec, OpJoin, 0x6a6f696e) // "join"
	for _, f := range p.Flash {
		if f.At >= horizon {
			continue
		}
		for j := 0; j < f.Joiners; j++ {
			// j·Over/Joiners in 128 bits: the product overflows an int64
			// for spans Validate accepts, the quotient (< Over) never does.
			// Offsets grow with j, so the first one at or past the horizon
			// ends the crowd, and At+off is formed only below it.
			hi, lo := bits.Mul64(uint64(j), uint64(f.Over))
			q, _ := bits.Div64(hi, lo, uint64(f.Joiners))
			off := time.Duration(q)
			if off >= horizon-f.At {
				break
			}
			out = append(out, TimelineEvent{At: f.At + off, Op: OpJoin})
		}
	}
	appendPoisson(p.LeavePerSec, leaveOp, 0x6c656176) // "leav"
	// Stable by time: the append order above (joins, then leaves) is the
	// deterministic tie-break.
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Pick selects the victims of an event: a uniformly random subset of the
// eligible nodes sized round(len(eligible) * fraction), with a floor of
// one victim whenever fraction > 0 and any node is eligible — a nonzero
// burst is never a silent no-op, however small the population (at the
// paper's 230 nodes, fractions under 0.22% used to round to nothing).
func Pick(eligible []wire.NodeID, fraction float64, rng *rand.Rand) []wire.NodeID {
	k := int(float64(len(eligible))*fraction + 0.5)
	if k == 0 && fraction > 0 && len(eligible) > 0 {
		k = 1
	}
	if k <= 0 {
		return nil
	}
	if k > len(eligible) {
		k = len(eligible)
	}
	perm := rng.Perm(len(eligible))
	victims := make([]wire.NodeID, k)
	for i := 0; i < k; i++ {
		victims[i] = eligible[perm[i]]
	}
	return victims
}
