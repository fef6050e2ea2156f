package main

import (
	"fmt"
	"slices"
)

// metricDef names one metric and its unit. The two lists below are the
// benchmark's vocabulary: a run reports exactly the names of one list, and
// BENCHMARK.json declares the same names (a test keeps the two equal).
// Directions and regression bounds live in BENCHMARK.json only.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are measured with tracing off, per workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"wall_s_per_sim_s", "s/s"},
	{"cpu_s_per_sim_s", "s/s"},
	{"allocs_per_sim_s", "1/s"},
	{"alloc_mb_per_sim_s", "MB/s"},
	{"peak_rss_mb", "MB"},
	{"complete_pct", "%"},
	{"complete_pct_10s", "%"},
}

// perLayerMetrics are measured by the traced pass; the prefix is the layer.
var perLayerMetrics = []metricDef{
	// core: spans of the workload's traced twin, a stub-Env probe, Counters.
	{"core.propose_ns", "ns"},
	{"core.request_ns", "ns"},
	{"core.serve_ns", "ns"},
	{"core.timer_ns", "ns"},
	{"core.proposes", "count"},
	{"core.requests", "count"},
	{"core.serves", "count"},
	{"core.timers", "count"},
	{"core.self_share", "%"},
	{"core.propose_allocs", "allocs/op"},
	{"core.request_allocs", "allocs/op"},
	{"core.serve_allocs", "allocs/op"},
	{"core.round_allocs", "allocs/op"},
	{"core.retransmit_ratio", "ratio"},
	{"core.duplicate_serve_ratio", "ratio"},
	// megasim: twin spans, null-handler probes, load counters of clocked runs.
	{"megasim.send_ns", "ns"},
	{"megasim.after_ns", "ns"},
	{"megasim.sends", "count"},
	{"megasim.afters", "count"},
	{"megasim.loop_self_share", "%"},
	{"megasim.loop_self_ns_per_event", "ns"},
	{"megasim.hold_ns_per_event", "ns"},
	{"megasim.hold_allocs_per_event", "allocs/op"},
	{"megasim.pingpong_ns_per_event", "ns"},
	{"megasim.pingpong_allocs_per_event", "allocs/op"},
	{"megasim.pingpong2_ns_per_event", "ns"},
	{"megasim.empty_window_ns", "ns"},
	{"megasim.events", "count"},
	{"megasim.events_per_s", "1/s"},
	{"megasim.delivers", "count"},
	{"megasim.timers", "count"},
	{"megasim.member_ticks", "count"},
	{"megasim.windows", "count"},
	{"megasim.events_per_window", "count"},
	{"megasim.heap_peak", "count"},
	{"megasim.outbox_msgs", "count"},
	{"megasim.stale_drops", "count"},
	{"megasim.run_s", "s"},
	{"megasim.merge_s", "s"},
	{"megasim.merge_ns_per_window", "ns"},
	{"megasim.parallel_efficiency", "ratio"},
	// wire: the SERVE pool path and the rt codec.
	{"wire.split_recycle_ns", "ns"},
	{"wire.split_recycle_allocs", "allocs/op"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.decode_allocs", "allocs/op"},
	// pss, member: spans of the Cyclon and the full-view twin, a probe.
	{"pss.tick_ns", "ns"},
	{"pss.handle_ns", "ns"},
	{"pss.sample_ns", "ns"},
	{"pss.self_share", "%"},
	{"pss.shuffle_allocs", "allocs/op"},
	{"member.sample_ns", "ns"},
	// churn, experiment: the churned run's barrier work and the runner's own.
	{"churn.joins", "count"},
	{"churn.leaves", "count"},
	{"experiment.barrier_s", "s"},
	{"experiment.barrier_us_per_churn_event", "us"},
	{"experiment.build_score_s", "s"},
	// layers off the event path: one probe each.
	{"shaping.enqueue_ns", "ns"},
	{"stream.deliver_ns", "ns"},
	{"stream.source_build_ms", "ms"},
	{"fec.encode_mb_per_s", "MB/s"},
	{"fec.reconstruct_mb_per_s", "MB/s"},
	{"gf256.muladd_mb_per_s", "MB/s"},
	{"telemetry.lag_observe_ns", "ns"},
	{"telemetry.hist_observe_ns", "ns"},
	// simnet: exact traffic counts of the workload's own run.
	{"simnet.congestion_drop_ratio", "ratio"},
	{"simnet.random_drop_ratio", "ratio"},
	{"simnet.dead_drop_ratio", "ratio"},
	{"simnet.upload_overhead", "ratio"},
	// runtime: the Go runtime under the workload's own run.
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.heap_live_end_mb", "MB"},
	{"runtime.bytes_per_alloc", "B"},
	// rt: a two-socket loopback cluster; all three read 0 when it is skipped.
	{"rt.packets_per_s", "1/s"},
	{"rt.cpu_us_per_packet", "us"},
	{"rt.complete_pct", "%"},
	// trace: the traced twin against the untraced run it mirrors.
	{"trace.overhead_pct", "%"},
	{"trace.event_ratio", "ratio"},
}

// metricValue is one reported number, in the result line's shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name while a run measures.
type metricSet map[string]float64

// report pairs the set with the units of defs. It is an error — a bug in the
// benchmark — for the set to miss a name of defs or to hold any other.
func (m metricSet) report(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range m {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

// sample is the timings of one metric over a run's repetitions. With fewer
// than ten repetitions it supports no percentile beyond the median, so the
// median is what a run reports, with the extremes beside it for the reader.
type sample []float64

func (s sample) median() float64 {
	if len(s) == 0 {
		return 0
	}
	c := slices.Sorted(slices.Values(s))
	mid := len(c) / 2
	if len(c)%2 == 1 {
		return c[mid]
	}
	return (c[mid-1] + c[mid]) / 2
}

func (s sample) String() string {
	return fmt.Sprintf("median %.6g (min %.6g, max %.6g, n=%d)", s.median(), slices.Min(s), slices.Max(s), len(s))
}

// ratio returns a/b, and 0 when b is 0 (a layer the run did not exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
