package gossipstream

import (
	"runtime"
	"testing"
	"time"
)

// TestSteadyStateAllocBudget holds a whole sharded run to its allocation
// budget per event: 0.05, against ≈0.01 measured on one shard and two, over
// the full view and over Cyclon views (what remains is growth — of message
// slab, spill arenas, outboxes and per-peer slabs toward their peaks — and
// the stream source's packets). It was ≈0.1 while every in-flight record
// and retransmission batch grew a backing of its own — and over Cyclon
// while every shuffle built fresh, boxed emissions — 0.8 while every
// message was boxed and 3.8 before the event path stopped allocating.
//
// Building a deployment allocates per node, so the budget is taken over a
// steady window: the same 500-node deployment runs for 6 and for 12
// simulated seconds, and the extra allocations are divided by the extra
// events.
func TestSteadyStateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for _, leg := range []struct {
		name       string
		shards     int
		membership Membership
	}{
		{"1-shards", 1, MembershipFull},
		{"2-shards", 2, MembershipFull},
		{"cyclon/1-shards", 1, MembershipCyclon},
		{"cyclon/2-shards", 2, MembershipCyclon},
	} {
		shards := leg.shards
		t.Run(leg.name, func(t *testing.T) {
			run := func(simFor time.Duration) (mallocs, events uint64) {
				cfg := ScaledExperiment(500, shards, simFor)
				cfg.Membership = leg.membership
				// Two collections put both runs on the same footing: the
				// second empties the victim cache of every sync.Pool.
				runtime.GC()
				runtime.GC()
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				res, err := RunExperiment(cfg)
				runtime.ReadMemStats(&m1)
				if err != nil {
					t.Fatal(err)
				}
				return m1.Mallocs - m0.Mallocs, res.Events
			}
			shortMallocs, shortEvents := run(6 * time.Second)
			longMallocs, longEvents := run(12 * time.Second)
			if longEvents < shortEvents+100_000 {
				t.Fatalf("the steady window holds only %d events", longEvents-shortEvents)
			}
			perEvent := float64(longMallocs-shortMallocs) / float64(longEvents-shortEvents)
			t.Logf("%.3f allocations per event over a steady window of %d events", perEvent, longEvents-shortEvents)
			if perEvent > 0.05 {
				t.Fatalf("%.3f allocations per event in steady state, budget 0.05", perEvent)
			}
		})
	}
}
