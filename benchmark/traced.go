package main

import (
	"fmt"
	"reflect"

	gs "gossipstream"
	"gossipstream/internal/wire"
)

// The traced pass gives the per-layer numbers of one workload. End-to-end
// metrics are never taken here: every run below is untimed for gating
// purposes. The pass runs, one at a time:
//
//   - the workload's twin deployment (twinDeployment) through RunExperiment
//     at one and at two shards, clocked: the megasim load counters, the
//     run/merge split, parallel efficiency, and the reference the traced
//     twin is compared against;
//   - the workload itself once more when it is not its twin deployment,
//     observed (wall clock in the supervisor when it is sharded): runtime.*,
//     simnet.*;
//   - the traced twin of that deployment: core.*, megasim span metrics and
//     the membership spans of its own kind;
//   - a quarter-length companion twin of the other membership kind, and — if
//     the workload itself has no sustained churn — a quarter-length
//     cyclon_churn run, so that pss.*, member.*, churn.* and
//     experiment.barrier_* are measurements on every workload;
//   - the probes and the rt loopback cluster, which do not depend on the
//     workload.

// tracedResult is everything a traced pass learned.
type tracedResult struct {
	metrics metricSet
	dump    spanDump
	rtNote  string // how the rt probe went: loopback, or why it was skipped
	runs    int
}

func clocked(cfg gs.ExperimentConfig) gs.ExperimentConfig {
	cfg.Telemetry = &gs.TelemetryOptions{Clock: gs.NewWallClock()}
	return cfg
}

func hasSustainedChurn(cfg gs.ExperimentConfig) bool {
	return cfg.Shards > 0 && cfg.ChurnProcess != nil && !cfg.ChurnProcess.IsZero()
}

// runTraced runs the traced pass of w at scale sc.
func runTraced(w workload, seed int64, sc scale) (*tracedResult, error) {
	out := &tracedResult{metrics: metricSet{}, dump: spanDump{Workload: w.name, Seed: seed, Twins: map[string]twinDump{}}}
	m := out.metrics
	observed := func(cfg gs.ExperimentConfig) (*gs.ExperimentResult, runCost, error) {
		res, cost, err := measuredRun(cfg)
		if err != nil {
			return nil, runCost{}, err
		}
		if _, err := observe(res); err != nil {
			return nil, runCost{}, err
		}
		out.runs++
		return res, cost, nil
	}

	// Reference runs of the twin deployment at one and two shards.
	self := w.build(seed, sc)
	dep := twinDeployment(self)
	var refs [3]*gs.ExperimentResult // indexed by shard count
	var refCost [3]runCost
	for shards := 1; shards <= 2; shards++ {
		cfg := dep
		cfg.Shards = shards
		var err error
		if refs[shards], refCost[shards], err = observed(clocked(cfg)); err != nil {
			return nil, fmt.Errorf("reference run, %d shards: %w", shards, err)
		}
	}
	ref, cost := refs[dep.Shards], refCost[dep.Shards]
	var load gs.ShardLoad // summed over shards; HeapPeak is the largest
	for _, l := range ref.ShardLoads {
		load.Events += l.Events
		load.Timers += l.Timers
		load.Delivers += l.Delivers
		load.MemberTicks += l.MemberTicks
		load.HeapPeak = max(load.HeapPeak, l.HeapPeak)
	}
	m["megasim.events"] = float64(ref.Events)
	m["megasim.events_per_s"] = float64(ref.Events) / cost.wall
	m["megasim.delivers"] = float64(load.Delivers)
	m["megasim.timers"] = float64(load.Timers)
	m["megasim.member_ticks"] = float64(load.MemberTicks)
	m["megasim.heap_peak"] = float64(load.HeapPeak)
	m["megasim.run_s"] = float64(ref.Wall.RunNS) / 1e9
	engineNS := ref.Wall.RunNS + ref.Wall.MergeNS + ref.Wall.BarrierNS
	m["experiment.build_score_s"] = cost.wall - float64(engineNS)/1e9
	// Barrier and merge only exist with more than one shard, so they are
	// always read off the two-shard run.
	two := refs[2]
	windows := float64(two.ShardLoads[0].Windows)
	m["megasim.windows"] = windows
	m["megasim.events_per_window"] = float64(two.Events) / (2 * windows)
	m["megasim.outbox_msgs"] = float64(two.ShardLoads[0].OutboxOut + two.ShardLoads[1].OutboxOut)
	m["megasim.merge_s"] = float64(two.Wall.MergeNS) / 1e9
	m["megasim.merge_ns_per_window"] = float64(two.Wall.MergeNS) / windows
	m["megasim.parallel_efficiency"] = refCost[1].wall / (2 * refCost[2].wall)

	// The workload itself, when the twin deployment is not it.
	selfRes, selfCost := ref, cost
	if !reflect.DeepEqual(self, dep) {
		cfg := self
		if cfg.Shards > 0 {
			cfg = clocked(cfg)
		}
		var err error
		if selfRes, selfCost, err = observed(cfg); err != nil {
			return nil, fmt.Errorf("observed run: %w", err)
		}
	}
	t := totalTraffic(selfRes)
	sent := float64(sum(t.SentMsgs[:]))
	m["simnet.congestion_drop_ratio"] = float64(t.CongestionDrops) / sent
	m["simnet.random_drop_ratio"] = float64(t.RandomDrops) / sent
	m["simnet.dead_drop_ratio"] = float64(t.DeadDrops) / sent
	m["simnet.upload_overhead"] = float64(t.TotalSentBytes()) / float64(t.RecvBytes[wire.KindServe])
	m["runtime.gc_cpu_frac"] = selfCost.gcCPU / selfCost.cpu
	m["runtime.gc_cycles"] = float64(selfCost.gcCycles)
	m["runtime.heap_live_end_mb"] = selfCost.heapLiveEndMB
	m["runtime.bytes_per_alloc"] = float64(selfCost.allocBytes) / float64(selfCost.mallocs)

	// Sustained churn: the workload's own run, or the companion.
	churned := selfRes
	if !hasSustainedChurn(self) {
		var err error
		if churned, _, err = observed(clocked(cyclonChurn.build(seed, sc.quarter()))); err != nil {
			return nil, fmt.Errorf("churn companion: %w", err)
		}
	}
	joins, leaves := churned.JoinedCount(), churned.DepartedCount()
	var stale uint64
	for _, l := range churned.ShardLoads {
		stale += l.StaleDrops
	}
	m["churn.joins"] = float64(joins)
	m["churn.leaves"] = float64(leaves)
	m["megasim.stale_drops"] = float64(stale)
	m["experiment.barrier_s"] = float64(churned.Wall.BarrierNS) / 1e9
	m["experiment.barrier_us_per_churn_event"] = ratio(float64(churned.Wall.BarrierNS)/1e3, float64(joins+leaves))

	// The traced twin and its companion of the other membership kind.
	own, err := runTwin(dep)
	if err != nil {
		return nil, err
	}
	other, err := runTwin(companionOf(dep, seed, sc))
	if err != nil {
		return nil, fmt.Errorf("companion: %w", err)
	}
	out.runs += 2
	out.dump.Twins["own"] = own.dump()
	out.dump.Twins["companion"] = other.dump()
	fullView, cyclon := own, other
	if dep.Membership == gs.MembershipCyclon {
		fullView, cyclon = other, own
	}
	s := &own.stats
	m["core.propose_ns"] = s[spanCorePropose].meanSelfNS()
	m["core.request_ns"] = s[spanCoreRequest].meanSelfNS()
	m["core.serve_ns"] = s[spanCoreServe].meanSelfNS()
	m["core.timer_ns"] = s[spanCoreTimer].meanSelfNS()
	m["core.proposes"] = float64(s[spanCorePropose].Count)
	m["core.requests"] = float64(s[spanCoreRequest].Count)
	m["core.serves"] = float64(s[spanCoreServe].Count)
	m["core.timers"] = float64(s[spanCoreTimer].Count)
	m["core.self_share"] = own.selfShare(spanCoreTimer, spanCorePropose, spanCoreRequest, spanCoreServe, spanCoreOther)
	m["core.retransmit_ratio"] = ratio(float64(own.counters.Retransmissions), float64(own.counters.RequestsSent))
	m["core.duplicate_serve_ratio"] = ratio(float64(own.counters.DuplicateServes), float64(own.counters.PacketsServed))
	m["megasim.send_ns"] = s[spanSend].meanSelfNS()
	m["megasim.after_ns"] = s[spanAfter].meanSelfNS()
	m["megasim.sends"] = float64(s[spanSend].Count)
	m["megasim.afters"] = float64(s[spanAfter].Count)
	m["megasim.loop_self_share"] = 100 * own.loopSelfNS() / own.shardWall()
	m["megasim.loop_self_ns_per_event"] = own.loopSelfNS() / float64(own.events)
	m["member.sample_ns"] = fullView.stats[spanMemberSample].meanSelfNS()
	m["pss.tick_ns"] = cyclon.stats[spanPssTick].meanSelfNS()
	m["pss.handle_ns"] = cyclon.stats[spanPssHandle].meanSelfNS()
	m["pss.sample_ns"] = cyclon.stats[spanPssSample].meanSelfNS()
	m["pss.self_share"] = cyclon.selfShare(spanPssTick, spanPssHandle, spanPssSample)
	m["trace.event_ratio"] = float64(own.events) / float64(ref.Events)
	m["trace.overhead_pct"] = 100 * (float64(own.runWall.Nanoseconds())/float64(engineNS) - 1)

	for _, probe := range []func(metricSet, int64) error{probeCore, probeMegasim, probeWire, probePss, probeCodec} {
		if err := probe(m, seed); err != nil {
			return nil, err
		}
	}
	if out.rtNote, err = probeRT(m, seed, sc); err != nil {
		return nil, err
	}
	return out, nil
}

// splitTable renders where a twin's shard time went, one row per span kind
// plus the engine loop, in percent of shards × run wall. The loop is what no
// span covers, so the rows add up to 100 by construction.
func splitTable(d twinDump) string {
	wall := d.RunWall * 1e9 * float64(d.Shards)
	var covered int64
	out := fmt.Sprintf("self time by layer, %% of %d shard(s) x %.3f s run wall, %d events:\n", d.Shards, d.RunWall, d.Events)
	for _, name := range spanNames {
		st, ok := d.Spans[name]
		if !ok {
			continue
		}
		covered += st.SelfNS
		out += fmt.Sprintf("  %-16s self %6.2f %%  (%d spans, %.0f ns self each)\n", name, 100*float64(st.SelfNS)/wall, st.Count, st.meanSelfNS())
	}
	return out + fmt.Sprintf("  %-16s self %6.2f %%  (queue, dispatch, delivery, merge, barrier stall)\n", "megasim.loop", 100*(wall-float64(covered))/wall)
}
