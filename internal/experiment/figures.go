package experiment

import (
	"fmt"
	"time"

	"gossipstream/internal/churn"
	"gossipstream/internal/member"
	"gossipstream/internal/metrics"
	"gossipstream/internal/telemetry"
)

// Figure options shared by the generators. A zero Options uses the paper's
// full-scale settings; Scale trims node count and stream length for quick
// runs (benchmarks, CI).
type Options struct {
	// Base is the starting configuration; zero value means Defaults().
	Base *Config
	// Scale in (0, 1] shrinks Nodes and Windows proportionally. 0 = 1.0.
	Scale float64
}

// BaseConfig resolves the options into the concrete configuration a figure
// run would start from (scaling applied).
func (o Options) BaseConfig() Config { return o.base() }

func (o Options) base() Config {
	cfg := Defaults()
	if o.Base != nil {
		cfg = *o.Base
	}
	if o.Scale > 0 && o.Scale < 1 {
		cfg.Nodes = max(16, int(float64(cfg.Nodes)*o.Scale))
		cfg.Layout.Windows = max(10, int(float64(cfg.Layout.Windows)*o.Scale))
	}
	return cfg
}

// The figure generators score through Result.Scored* (streaming.go),
// which picks the population — lifetime-masked under a sustained churn
// process, the paper's survivors otherwise. Only Figure 4 and ChurnClaim
// read the per-node rows and so force Config.StreamingMetrics off.

// sweep runs n variants of the options' base configuration in parallel,
// set adjusting the i-th, and returns their results in order.
func sweep(opts Options, n int, set func(i int, cfg *Config)) ([]*Result, error) {
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfgs[i] = opts.base()
		set(i, &cfgs[i])
	}
	return RunMany(cfgs)
}

// qualityTable is the table of Figures 1, 5 and 6: per swept value
// (label(i) for results[i]), the percentage of nodes within the jitter
// bar offline and at 20 s and 10 s lag, and the mean complete-window
// percentage.
func qualityTable(title, axis string, results []*Result, label func(i int) string) *metrics.Table {
	tb := metrics.NewTable(title, axis, "offline", "20s lag", "10s lag", "mean complete %")
	for i, res := range results {
		tb.AddRow(label(i),
			pct(res.ScoredViewablePct(metrics.InfiniteLag, metrics.DefaultJitterThreshold)),
			pct(res.ScoredViewablePct(20*time.Second, metrics.DefaultJitterThreshold)),
			pct(res.ScoredViewablePct(10*time.Second, metrics.DefaultJitterThreshold)),
			pct(res.ScoredMeanCompletePct(metrics.InfiniteLag)))
	}
	return tb
}

// pct formats a percentage table cell.
func pct(v float64) string { return fmt.Sprintf("%.1f", v) }

// Figure1Fanouts is the default fanout sweep of Figures 1 and 2.
var Figure1Fanouts = []int{4, 5, 6, 7, 10, 15, 20, 30, 40, 50, 65, 80}

// Figure1 reproduces "Percentage of nodes viewing the stream with less than
// 1% of jitter (upload capped at 700 kbps)": a fanout sweep reporting the
// percentage of nodes within the jitter bar at each lag. It returns the
// table plus the per-run results for further analysis (Figure 2 reuses
// them).
func Figure1(opts Options, fanouts []int) (*metrics.Table, []*Result, error) {
	if len(fanouts) == 0 {
		fanouts = Figure1Fanouts
	}
	results, err := sweep(opts, len(fanouts), func(i int, cfg *Config) { cfg.Protocol.Fanout = fanouts[i] })
	if err != nil {
		return nil, nil, fmt.Errorf("figure 1: %w", err)
	}
	tb := qualityTable("Figure 1: % nodes with <1% jitter vs fanout (700 kbps cap)", "fanout",
		results, func(i int) string { return fmt.Sprintf("%d", fanouts[i]) })
	return tb, results, nil
}

// Figure2Probes is the lag axis of Figure 2: the finite probes of
// telemetry.LagProbes.
var Figure2Probes = telemetry.LagProbes[: telemetry.NumProbes-1 : telemetry.NumProbes-1]

// Figure2 reproduces "Cumulative distribution of stream lag with various
// fanouts": for each probe lag t, the percentage of nodes that can view
// ≥99% of the stream with lag shorter than t. It can reuse Figure 1's
// results (pass them with matching fanouts) or run its own.
func Figure2(opts Options, fanouts []int, results []*Result) (*metrics.Table, error) {
	if len(fanouts) == 0 {
		fanouts = Figure1Fanouts
	}
	if results == nil {
		var err error
		_, results, err = Figure1(opts, fanouts)
		if err != nil {
			return nil, fmt.Errorf("figure 2: %w", err)
		}
	}
	if len(results) != len(fanouts) {
		return nil, fmt.Errorf("figure 2: %d results for %d fanouts", len(results), len(fanouts))
	}
	cols := []string{"lag"}
	for _, f := range fanouts {
		cols = append(cols, fmt.Sprintf("f=%d", f))
	}
	tb := metrics.NewTable(
		"Figure 2: CDF of stream lag — % nodes viewing ≥99% of stream within lag t (700 kbps cap)",
		cols...)
	for _, probe := range Figure2Probes {
		row := []string{fmt.Sprintf("%.0fs", probe.Seconds())}
		for i := range fanouts {
			row = append(row, pct(results[i].ScoredLagCDFAt(probe, metrics.DefaultJitterThreshold)))
		}
		tb.AddRow(row...)
	}
	return tb, nil
}

// Figure3Fanouts is the default sweep of Figure 3.
var Figure3Fanouts = []int{7, 10, 20, 30, 40, 50, 65, 80, 100, 120, 150}

// Figure3 reproduces "Percentage of nodes viewing the stream with less than
// 1% of jitter with upload caps of 1000 kbps and 2000 kbps": the fanout
// sweep under looser caps, showing the good-fanout region widening.
func Figure3(opts Options, fanouts []int, capsBps []int64) (*metrics.Table, error) {
	if len(fanouts) == 0 {
		fanouts = Figure3Fanouts
	}
	if len(capsBps) == 0 {
		capsBps = []int64{1_000_000, 2_000_000}
	}
	results, err := sweep(opts, len(capsBps)*len(fanouts), func(i int, cfg *Config) {
		cfg.UploadCapBps = capsBps[i/len(fanouts)]
		cfg.Protocol.Fanout = fanouts[i%len(fanouts)]
	})
	if err != nil {
		return nil, fmt.Errorf("figure 3: %w", err)
	}
	cols := []string{"fanout"}
	for _, capBps := range capsBps {
		cols = append(cols,
			fmt.Sprintf("offline %dk", capBps/1000),
			fmt.Sprintf("10s lag %dk", capBps/1000))
	}
	tb := metrics.NewTable(
		"Figure 3: % nodes with <1% jitter vs fanout (1000/2000 kbps caps)",
		cols...)
	for i, f := range fanouts {
		row := []string{fmt.Sprintf("%d", f)}
		for c := range capsBps {
			res := results[c*len(fanouts)+i]
			row = append(row,
				pct(res.ScoredViewablePct(metrics.InfiniteLag, metrics.DefaultJitterThreshold)),
				pct(res.ScoredViewablePct(10*time.Second, metrics.DefaultJitterThreshold)))
		}
		tb.AddRow(row...)
	}
	return tb, nil
}

// Figure4Combo is one (fanout, cap) line of Figure 4.
type Figure4Combo struct {
	Fanout int
	CapBps int64
}

// Figure4Combos is the paper's set of lines.
var Figure4Combos = []Figure4Combo{
	{Fanout: 7, CapBps: 700_000},
	{Fanout: 50, CapBps: 700_000},
	{Fanout: 50, CapBps: 1_000_000},
	{Fanout: 50, CapBps: 2_000_000},
	{Fanout: 100, CapBps: 2_000_000},
}

// Figure4 reproduces "Distribution of bandwidth usage among nodes": per-node
// average upload rate, nodes sorted from the most to the least contributing.
// Rows are node ranks (percentiles of the sorted distribution).
func Figure4(opts Options, combos []Figure4Combo) (*metrics.Table, error) {
	if len(combos) == 0 {
		combos = Figure4Combos
	}
	results, err := sweep(opts, len(combos), func(i int, cfg *Config) {
		cfg.Protocol.Fanout = combos[i].Fanout
		cfg.UploadCapBps = combos[i].CapBps
		// Rank percentiles of the exact sorted distribution need every
		// node's rate retained; the streaming histogram buckets them.
		cfg.StreamingMetrics = false
	})
	if err != nil {
		return nil, fmt.Errorf("figure 4: %w", err)
	}
	cols := []string{"node rank %"}
	for _, combo := range combos {
		cols = append(cols, fmt.Sprintf("f=%d %dk", combo.Fanout, combo.CapBps/1000))
	}
	tb := metrics.NewTable(
		"Figure 4: upload bandwidth usage by node (kbps, sorted descending)",
		cols...)
	dists := make([][]float64, len(results))
	for i, res := range results {
		dists[i] = res.UploadDistribution()
	}
	for _, pct := range []int{0, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 95, 100} {
		row := []string{fmt.Sprintf("%d", pct)}
		for _, dist := range dists {
			idx := pct * (len(dist) - 1) / 100
			row = append(row, fmt.Sprintf("%.0f", dist[idx]))
		}
		tb.AddRow(row...)
	}
	return tb, nil
}

// Figure5Rates is the paper's refresh-rate axis (member.Never = ∞).
var Figure5Rates = []int{1, 2, 10, 100, member.Never}

// Figure5 reproduces "Percentage of nodes viewing the stream with at most 1%
// jitter as a function of the refresh rate X".
func Figure5(opts Options, rates []int) (*metrics.Table, error) {
	if len(rates) == 0 {
		rates = Figure5Rates
	}
	results, err := sweep(opts, len(rates), func(i int, cfg *Config) { cfg.Protocol.RefreshEvery = rates[i] })
	if err != nil {
		return nil, fmt.Errorf("figure 5: %w", err)
	}
	return qualityTable("Figure 5: % nodes with ≤1% jitter vs view refresh rate X (f=7, 700 kbps)", "X",
		results, func(i int) string { return rateLabel(rates[i]) }), nil
}

// Figure6Rates is the paper's feed-me rate axis.
var Figure6Rates = []int{1, 10, 100, member.Never}

// Figure6 reproduces "Percentage of nodes viewing the stream with at most 1%
// jitter as a function of the request rate Y": partner sets are static
// (X = ∞) and refreshed only by explicit feed-me requests every Y rounds.
func Figure6(opts Options, rates []int) (*metrics.Table, error) {
	if len(rates) == 0 {
		rates = Figure6Rates
	}
	results, err := sweep(opts, len(rates), func(i int, cfg *Config) {
		cfg.Protocol.RefreshEvery = member.Never
		cfg.Protocol.FeedEvery = rates[i]
	})
	if err != nil {
		return nil, fmt.Errorf("figure 6: %w", err)
	}
	return qualityTable("Figure 6: % nodes with ≤1% jitter vs feed-me rate Y (X=∞, f=7, 700 kbps)", "Y",
		results, func(i int) string { return rateLabel(rates[i]) }), nil
}

// Figure7Churns is the default churn axis of Figures 7 and 8.
var Figure7Churns = []float64{0, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8}

// Figure7Refreshes is the default X axis of Figures 7 and 8.
var Figure7Refreshes = []int{1, 2, 20, member.Never}

// churnSweep runs the grid shared by Figures 7 and 8.
func churnSweep(opts Options, churns []float64, refreshes []int) ([]float64, []int, []*Result, error) {
	if len(churns) == 0 {
		churns = Figure7Churns
	}
	if len(refreshes) == 0 {
		refreshes = Figure7Refreshes
	}
	results, err := sweep(opts, len(refreshes)*len(churns), func(i int, cfg *Config) {
		cfg.Protocol.RefreshEvery = refreshes[i/len(churns)]
		// The sweep owns the burst axis: Config.Churn is a run's only
		// source of bursts, so clearing it makes the frac = 0 row
		// burst-free. A base ChurnProcess stays in force across the grid.
		cfg.Churn = nil
		if frac := churns[i%len(churns)]; frac > 0 {
			cfg.Churn = churn.Catastrophic(cfg.Layout.Duration()/2, frac)
		}
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return churns, refreshes, results, nil
}

// Figure7 reproduces "Percentage of surviving nodes experiencing less than
// 1% jitter for different values of X" under catastrophic churn. The paper
// plots offline and 20 s lag; both are reported, at 20 s lag per column X.
func Figure7(opts Options, churns []float64, refreshes []int) (*metrics.Table, []*Result, error) {
	churns, refreshes, results, err := churnSweep(opts, churns, refreshes)
	if err != nil {
		return nil, nil, fmt.Errorf("figure 7: %w", err)
	}
	cols := []string{"churn %"}
	for _, x := range refreshes {
		cols = append(cols, "20s X="+rateLabel(x), "off X="+rateLabel(x))
	}
	tb := metrics.NewTable(
		"Figure 7: % surviving nodes with <1% jitter vs % failing nodes",
		cols...)
	for ci, frac := range churns {
		row := []string{fmt.Sprintf("%.0f", frac*100)}
		for xi := range refreshes {
			res := results[xi*len(churns)+ci]
			row = append(row,
				pct(res.ScoredViewablePct(20*time.Second, metrics.DefaultJitterThreshold)),
				pct(res.ScoredViewablePct(metrics.InfiniteLag, metrics.DefaultJitterThreshold)))
		}
		tb.AddRow(row...)
	}
	return tb, results, nil
}

// Figure8 reproduces "Average percentage of complete windows for surviving
// nodes" over the same churn grid (20 s lag), reusing Figure 7's results
// when provided.
func Figure8(opts Options, churns []float64, refreshes []int, results []*Result) (*metrics.Table, error) {
	if len(churns) == 0 {
		churns = Figure7Churns
	}
	if len(refreshes) == 0 {
		refreshes = Figure7Refreshes
	}
	if results == nil {
		var err error
		churns, refreshes, results, err = churnSweep(opts, churns, refreshes)
		if err != nil {
			return nil, fmt.Errorf("figure 8: %w", err)
		}
	}
	if len(results) != len(churns)*len(refreshes) {
		return nil, fmt.Errorf("figure 8: %d results for %d×%d grid", len(results), len(refreshes), len(churns))
	}
	cols := []string{"churn %"}
	for _, x := range refreshes {
		cols = append(cols, "X="+rateLabel(x))
	}
	tb := metrics.NewTable(
		"Figure 8: average % of complete windows (20 s lag) for surviving nodes",
		cols...)
	for ci, frac := range churns {
		row := []string{fmt.Sprintf("%.0f", frac*100)}
		for xi := range refreshes {
			res := results[xi*len(churns)+ci]
			row = append(row, pct(res.ScoredMeanCompletePct(20*time.Second)))
		}
		tb.AddRow(row...)
	}
	return tb, nil
}

// ChurnClaimResult quantifies the paper's §1/§4.3 headline claim at 20%
// churn with X=1: most surviving nodes lose nothing, and the affected ones
// lose only a few seconds around the churn event.
type ChurnClaimResult struct {
	// UnaffectedPct is the percentage of survivors with <1% jitter at a
	// 20 s lag (the paper reports 70%).
	UnaffectedPct float64
	// MeanOutage is the mean span of incomplete windows among affected
	// survivors (the paper reports ≈5 s around the churn event).
	MeanOutage time.Duration
	// OutageNearChurnPct is the percentage of all incomplete windows that
	// lie within ±10 s of the churn event.
	OutageNearChurnPct float64
}

// ChurnClaim runs the 20%-churn X=1 scenario and evaluates the claim.
func ChurnClaim(opts Options) (ChurnClaimResult, error) {
	cfg := opts.base()
	churnAt := cfg.Layout.Duration() / 2
	cfg.Churn = churn.Catastrophic(churnAt, 0.2)
	// The outage-span analysis walks each survivor's per-window lags.
	cfg.StreamingMetrics = false
	res, err := Run(cfg)
	if err != nil {
		return ChurnClaimResult{}, fmt.Errorf("churn claim: %w", err)
	}
	lag := 20 * time.Second
	var out ChurnClaimResult
	var survivors, unaffected int
	var outageSum time.Duration
	var affected, missTotal, missNear int
	for _, n := range res.Nodes {
		if !n.Survived {
			continue
		}
		survivors++
		q := n.Quality
		if q.ViewableAt(lag, metrics.DefaultJitterThreshold) {
			unaffected++
			continue
		}
		affected++
		// Outage span: from first to last incomplete-at-lag window.
		first, last := -1, -1
		for w := 0; w < q.Windows(); w++ {
			l, ok := q.WindowLag(w)
			if ok && l <= lag {
				continue
			}
			if first < 0 {
				first = w
			}
			last = w
			missTotal++
			publish := cfg.Layout.WindowPublishTime(w)
			if publish >= churnAt-10*time.Second && publish <= churnAt+10*time.Second {
				missNear++
			}
		}
		if first >= 0 {
			span := cfg.Layout.WindowPublishTime(last) - cfg.Layout.WindowPublishTime(first)
			span += cfg.Layout.WindowPublishTime(0) // one window length
			outageSum += span
		}
	}
	if survivors > 0 {
		out.UnaffectedPct = 100 * float64(unaffected) / float64(survivors)
	}
	if affected > 0 {
		out.MeanOutage = outageSum / time.Duration(affected)
	}
	if missTotal > 0 {
		out.OutageNearChurnPct = 100 * float64(missNear) / float64(missTotal)
	}
	return out, nil
}

// rateLabel formats an X/Y rate, rendering member.Never as the paper's ∞.
func rateLabel(rate int) string {
	if rate == member.Never {
		return "inf"
	}
	return fmt.Sprintf("%d", rate)
}
