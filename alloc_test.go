package gossipstream

import (
	"runtime"
	"testing"
	"time"
)

// TestSteadyStateAllocBudget holds a whole sharded run to its allocation
// budget per event: 0.05, against ≈0.0002 measured on one shard and two,
// over the full view and over Cyclon views. What remains is the chunks
// the engine's message slab, spill pool and node tables and each shard's
// core.Table pools add as they grow toward their peaks, and the outboxes'
// growth; peers no longer grow slabs of their own. It was ≈0.008 while every peer grew its own request and batch slabs
// and propose queue, ≈0.1 while every in-flight record and retransmission
// batch grew a backing of its own — and over Cyclon while every shuffle
// built fresh, boxed emissions — 0.8 while every message was boxed and 3.8
// before the event path stopped allocating.
//
// The budget is taken over a steady window, apart from building the
// deployment (TestRunAllocBudget's): the same 500-node deployment runs for
// 6 and for 12 simulated seconds, and the extra allocations are divided by
// the extra events. At two shards the count varies by about a hundred
// from run to run, more than the window adds, so the difference may come
// out negative.
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
			perEvent := (float64(longMallocs) - float64(shortMallocs)) / float64(longEvents-shortEvents)
			t.Logf("%.4f allocations per event over a steady window of %d events", perEvent, longEvents-shortEvents)
			if perEvent > 0.05 {
				t.Fatalf("%.3f allocations per event in steady state, budget 0.05", perEvent)
			}
		})
	}
}

// TestRunAllocBudget holds a whole run — building the deployment, the
// stream and scoring included — to an allocation budget per node, at one
// shard and two, over the full view and over Cyclon views: 4 and 10
// against ≈0.55–0.83 and ≈0.62–0.90 measured at 500 nodes. A node's peer,
// random stream, sampler and environment live by value in per-shard
// chunks and tables, and a fresh Cyclon record's backings come from its
// shard's pools, so a run allocates per shard as those fill, not per node.
// It was ≈1.6–2.2 and ≈4.6–4.9 while each Cyclon record allocated its two
// backings, the scoring rows one lag slice per node and the slabs grew by
// copying; ≈35 per node on the full view and ≈40 over Cyclon while every
// node was a dozen heap objects of its own and every peer grew its own
// slabs.
func TestRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const nodes = 500
	for _, leg := range []struct {
		name       string
		shards     int
		membership Membership
		budget     float64
	}{
		{"1-shards", 1, MembershipFull, 4},
		{"2-shards", 2, MembershipFull, 4},
		{"cyclon/1-shards", 1, MembershipCyclon, 10},
		{"cyclon/2-shards", 2, MembershipCyclon, 10},
	} {
		t.Run(leg.name, func(t *testing.T) {
			cfg := ScaledExperiment(nodes, leg.shards, 6*time.Second)
			cfg.Membership = leg.membership
			runtime.GC()
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if _, err := RunExperiment(cfg); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			perNode := float64(m1.Mallocs-m0.Mallocs) / nodes
			t.Logf("%.2f allocations per node over a whole %d-node run", perNode, nodes)
			if perNode > leg.budget {
				t.Fatalf("%.2f allocations per node over a whole run, budget %.0f", perNode, leg.budget)
			}
		})
	}
}

// TestRunBytesBudget holds a whole run — building the deployment, the
// stream and scoring included — to a budget of bytes allocated per node,
// at one shard and two, over the full view and over Cyclon views. Every
// slab on the run's path grows by chunks that are never copied, and a
// fan-out's sends share one message record per destination shard, so a
// run allocates its footprint about once: 6.2 / 7.1 KB per node on the
// full view and 6.8 / 7.6 KB over Cyclon at one / two shards at seed 1,
// and at most 6.2 / 7.2 and 6.8 / 7.6 KB over seeds 1–8, budgets about 5%
// above the worst seed. While each shard's core.Table kept a request
// record per id in flight, a request index per peer and a batch slab, in
// place of each peer's batch buffers, the four read 7.1 / 8.0 and 7.8 /
// 8.7 KB at seed 1 and at most 7.3 / 8.5 and 7.8 / 8.8 KB over seeds
// 1–8, under budgets of 7,700 / 8,900 and 8,200 / 9,200 B. With a record
// and a spill block per send of a fan-out, the four read 7.9 / 8.9 and
// 8.5 / 9.6 KB at seed 1, each over its budget; with the message slab back on append, copying itself at
// every growth step, as well, 9.5 / 10.2 and 10.0 / 10.8 KB; before the
// run's slabs were chunked, 14.1–14.8 KB. With 192 KB request chunks,
// whose tail a 500-node shard pays in full, the same legs spread ±12%
// across seeds.
func TestRunBytesBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are meaningless under the race detector")
	}
	const nodes = 500
	for _, leg := range []struct {
		name       string
		shards     int
		membership Membership
		budget     float64 // bytes per node
	}{
		{"1-shards", 1, MembershipFull, 6_550},
		{"2-shards", 2, MembershipFull, 7_500},
		{"cyclon/1-shards", 1, MembershipCyclon, 7_200},
		{"cyclon/2-shards", 2, MembershipCyclon, 7_950},
	} {
		t.Run(leg.name, func(t *testing.T) {
			cfg := ScaledExperiment(nodes, leg.shards, 6*time.Second)
			cfg.Membership = leg.membership
			runtime.GC()
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if _, err := RunExperiment(cfg); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			perNode := float64(m1.TotalAlloc-m0.TotalAlloc) / nodes
			t.Logf("%.0f B allocated per node over a whole %d-node run", perNode, nodes)
			if perNode > leg.budget {
				t.Fatalf("%.0f B allocated per node over a whole run, budget %.0f", perNode, leg.budget)
			}
		})
	}
}

// TestStreamingMetricsHeap holds the memory claim of a run without per-node
// rows (ExperimentConfig.StreamingMetrics): under churn, the rows of every
// node that ever lived accumulate until the Result is built, while the fold
// keeps fixed-shape accumulators and lets a departed node go at its crash
// barrier. The same churned Cyclon run goes twice, with rows and without;
// the heap it leaves live — measured after a collection with the Result
// still reachable, relative to before the run — must be at most half as
// big without rows. Measured: 0.26–0.31 (≈180 KB against ≈600–670 KB and
// 1,058 rows).
func TestStreamingMetricsHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are meaningless under the race detector")
	}
	liveHeap := func(streaming bool) (bytes int64, rows int) {
		cfg := ScaledExperiment(1_000, 1, 8*time.Second)
		cfg.Seed = 1
		cfg.Membership = MembershipCyclon
		cfg.ChurnProcess = SustainedChurn(10, 10) // 1%/s each way
		cfg.StreamingMetrics = streaming
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		res, err := RunExperiment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(res)
		return int64(m1.HeapAlloc) - int64(m0.HeapAlloc), len(res.Nodes)
	}
	withRows, rows := liveHeap(false)
	noRows, _ := liveHeap(true)
	if rows == 0 || withRows <= 0 {
		t.Fatalf("the run with rows kept %d rows and %d live bytes", rows, withRows)
	}
	ratio := float64(noRows) / float64(withRows)
	t.Logf("live heap %d B without rows against %d B with %d rows: ratio %.3f", noRows, withRows, rows, ratio)
	if ratio > 0.5 {
		t.Fatalf("a run without rows keeps %.3f of the heap a run with rows keeps, want ≤ 0.5", ratio)
	}
}
